//! The hardware layer (HMCL): per-machine resource characterisation.
//!
//! A [`HardwareModel`] is what an HMCL script (paper Fig. 7) describes:
//!
//! * the **achieved floating-point rate** of the application's serial
//!   kernel, *per per-processor problem size* — "this rate changes
//!   according to the problem size per processor and requires updating
//!   according to the problem size that will be modelled" (§4.3). Stored as
//!   a small table interpolated in log(cell count);
//! * the equivalent **clc opcode costs** (the `MFDG`/`AFDG` entries of the
//!   Fig. 7 listing are simply `1/rate`);
//! * the **mpi section**: the three Eq. 3 curves.

use serde::{Deserialize, Serialize};

use crate::clc::OpcodeCosts;
use crate::comm::CommModel;

/// One achieved-rate observation: profiling the kernel at `cells_per_pe`
/// cells per processor measured `mflops`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AchievedRate {
    /// Per-processor subgrid size in cells.
    pub cells_per_pe: f64,
    /// Achieved rate in MFLOPS.
    pub mflops: f64,
}

/// A complete machine characterisation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HardwareModel {
    /// Machine name, e.g. `"Intel Pentium 3 / Myrinet 2000"`.
    pub name: String,
    /// Achieved-rate table, ascending in `cells_per_pe`. A single entry
    /// gives a size-independent rate.
    pub rates: Vec<AchievedRate>,
    /// The mpi section.
    pub comm: CommModel,
}

impl HardwareModel {
    /// A machine with a single (size-independent) achieved rate.
    pub fn flat_rate(name: &str, mflops: f64, comm: CommModel) -> Self {
        assert!(mflops > 0.0);
        HardwareModel {
            name: name.to_string(),
            rates: vec![AchievedRate { cells_per_pe: 1.0, mflops }],
            comm,
        }
    }

    /// Achieved rate for a given per-processor cell count, interpolated in
    /// log(cells) and clamped at the table ends.
    pub fn achieved_mflops(&self, cells_per_pe: usize) -> f64 {
        assert!(!self.rates.is_empty(), "rate table must not be empty");
        if self.rates.len() == 1 {
            return self.rates[0].mflops;
        }
        let x = (cells_per_pe.max(1) as f64).ln();
        let first = &self.rates[0];
        let last = &self.rates[self.rates.len() - 1];
        if x <= first.cells_per_pe.ln() {
            return first.mflops;
        }
        if x >= last.cells_per_pe.ln() {
            return last.mflops;
        }
        for w in self.rates.windows(2) {
            let (xa, xb) = (w[0].cells_per_pe.ln(), w[1].cells_per_pe.ln());
            if x >= xa && x <= xb {
                let t = (x - xa) / (xb - xa);
                return w[0].mflops + t * (w[1].mflops - w[0].mflops);
            }
        }
        unreachable!("clamped above")
    }

    /// Time in seconds to execute `flops` floating-point operations at the
    /// achieved rate for the given per-processor size.
    pub fn compute_secs(&self, flops: f64, cells_per_pe: usize) -> f64 {
        assert!(flops >= 0.0);
        flops / (self.achieved_mflops(cells_per_pe) * 1e6)
    }

    /// The degenerate opcode-cost table of the coarse method (Fig. 7's clc
    /// section): each flop opcode costs `1/rate` µs, branches/loops free.
    pub fn opcode_costs(&self, cells_per_pe: usize) -> OpcodeCosts {
        OpcodeCosts::from_achieved_rate(self.achieved_mflops(cells_per_pe))
    }

    /// Derive a what-if machine with the achieved rate scaled by `factor`
    /// (the paper's +25% / +50% speculation in Figs. 8–9).
    pub fn with_rate_scaled(&self, factor: f64) -> HardwareModel {
        assert!(factor > 0.0);
        let mut out = self.clone();
        for r in &mut out.rates {
            r.mflops *= factor;
        }
        out.name = format!("{} (rate x{factor:.2})", self.name);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::comm::CommModel;

    fn hw() -> HardwareModel {
        HardwareModel {
            name: "test".into(),
            rates: vec![
                AchievedRate { cells_per_pe: 1_000.0, mflops: 200.0 },
                AchievedRate { cells_per_pe: 125_000.0, mflops: 110.0 },
                AchievedRate { cells_per_pe: 1_000_000.0, mflops: 100.0 },
            ],
            comm: CommModel::free(),
        }
    }

    #[test]
    fn rate_interpolates_and_clamps() {
        let hw = hw();
        assert_eq!(hw.achieved_mflops(10), 200.0);
        assert_eq!(hw.achieved_mflops(125_000), 110.0);
        assert_eq!(hw.achieved_mflops(100_000_000), 100.0);
        let mid = hw.achieved_mflops(11_180); // geometric midpoint of 1e3..125e3
        assert!(mid < 200.0 && mid > 110.0);
    }

    #[test]
    fn compute_secs_inverse_to_rate() {
        let hw = hw();
        let t = hw.compute_secs(110e6, 125_000);
        assert!((t - 1.0).abs() < 1e-9);
    }

    #[test]
    fn flat_rate_table() {
        let hw = HardwareModel::flat_rate("flat", 340.0, CommModel::free());
        assert_eq!(hw.achieved_mflops(1), 340.0);
        assert_eq!(hw.achieved_mflops(1 << 30), 340.0);
    }

    #[test]
    fn rate_scaling_what_if() {
        let hw = hw().with_rate_scaled(1.25);
        assert!((hw.achieved_mflops(125_000) - 137.5).abs() < 1e-9);
        assert!(hw.name.contains("x1.25"));
    }

    #[test]
    fn opcode_costs_match_rate() {
        let hw = hw();
        let costs = hw.opcode_costs(125_000);
        assert!((costs.mfdg_us - 1.0 / 110.0).abs() < 1e-12);
        assert_eq!(costs.ifbr_us, 0.0);
    }
}
