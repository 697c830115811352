//! Robustness of the validation result: re-run a table under different
//! measurement campaigns (machine seeds = different days/background load)
//! and check the error structure — bound, sign, spread — is a property of
//! the method, not of one lucky run.

use cluster_sim::MachineSpec;
use hwbench::stats::{mean, stddev};

use crate::validation::{Calibration, RowSpec};

/// Error statistics of one campaign.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CampaignStats {
    /// Seed used for the machine.
    pub seed: u64,
    /// Mean signed error, percent.
    pub mean_signed: f64,
    /// Max |error|, percent.
    pub max_abs: f64,
}

/// The multi-campaign summary.
#[derive(Debug, Clone, PartialEq)]
pub struct Robustness {
    /// Per-campaign statistics.
    pub campaigns: Vec<CampaignStats>,
    /// Mean of campaign means.
    pub grand_mean: f64,
    /// Standard deviation of campaign means.
    pub mean_spread: f64,
}

/// Run `n_campaigns` re-measurements of a row set on fresh machine seeds.
/// The *prediction* is fixed (the model is deterministic); only the
/// simulated measurement varies.
pub fn run(machine: &MachineSpec, rows: &[RowSpec], n_campaigns: u64) -> Robustness {
    let cal = Calibration::new(machine, &rows[0].params(), 10, &[50]);
    let recorder = obs::Recorder::disabled();
    let predictions: Vec<f64> = rows.iter().map(|r| cal.predict(&r.params())).collect();

    let mut campaigns = Vec::new();
    for campaign in 0..n_campaigns {
        let seed = machine.seed ^ (0xC0FFEE + campaign * 0x9E37);
        let day = machine.clone().with_seed(seed);
        let errors: Vec<f64> = rows
            .iter()
            .zip(&predictions)
            .enumerate()
            .map(|(idx, (row, &pred))| {
                let measured =
                    cal.measure(&row.params(), &day, idx as u64 + 1, &recorder, 0).makespan();
                crate::error_pct(measured, pred)
            })
            .collect();
        campaigns.push(CampaignStats {
            seed,
            mean_signed: mean(&errors),
            max_abs: errors.iter().map(|e| e.abs()).fold(0.0, f64::max),
        });
    }
    let means: Vec<f64> = campaigns.iter().map(|c| c.mean_signed).collect();
    Robustness { grand_mean: mean(&means), mean_spread: stddev(&means), campaigns }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::validation::TABLE2_ROWS;
    use registry::sim::opteron_gige_sim;

    #[test]
    fn error_structure_survives_reseeding() {
        let r = run(&opteron_gige_sim(), &TABLE2_ROWS[..5], 6);
        assert_eq!(r.campaigns.len(), 6);
        // Every campaign stays under the paper's bound and over-predicts.
        for c in &r.campaigns {
            assert!(c.max_abs < 10.0, "campaign {c:?} broke the bound");
            assert!(c.mean_signed < 0.0, "campaign {c:?} lost the sign structure");
        }
        // Campaign-to-campaign variation is modest (background load ±2%).
        assert!(r.mean_spread < 3.0, "spread {}", r.mean_spread);
        assert!(r.grand_mean < -2.0 && r.grand_mean > -9.0, "grand mean {}", r.grand_mean);
    }
}
