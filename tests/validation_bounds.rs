//! The paper's headline claims, end to end across all crates:
//! measurement (DES trace) vs prediction (PACE model) on the three
//! simulated machines, with the error structure of §5.

use experiments::validation::{self, RowSpec};
use registry::sim as sim_machines;
use sweep3d::trace::FlopModel;

#[test]
fn table2_reproduces_paper_error_structure() {
    let table = validation::table2();
    assert_eq!(table.rows.len(), 9);
    // Headline: every row under 10% error.
    for row in &table.rows {
        assert!(
            row.error_pct.abs() < 10.0,
            "{}x{}: error {:.2}%",
            row.spec.px,
            row.spec.py,
            row.error_pct
        );
    }
    // Sign: over-prediction on the distributed-memory cluster, like the
    // paper's Table 2 (all nine rows negative there).
    assert!(table.mean_signed_error() < -1.0);
    // Magnitude band: paper average is 5.35%.
    assert!(table.avg_abs_error() > 2.0 && table.avg_abs_error() < 9.0);
    // Measured runtimes in the paper's range (8.98 – 12.07 s).
    let first = &table.rows[0];
    assert!(first.measured_secs > 6.0 && first.measured_secs < 12.0, "{}", first.measured_secs);
}

#[test]
fn table3_under_predicts_like_the_paper() {
    let table = validation::table3();
    for row in &table.rows {
        assert!(row.error_pct.abs() < 10.0, "error {:.2}%", row.error_pct);
        // Every Table 3 row in the paper is a positive error.
        assert!(
            row.error_pct > 0.0,
            "{}x{} should under-predict on the NUMA machine: {:+.2}%",
            row.spec.px,
            row.spec.py,
            row.error_pct
        );
    }
    // Paper: average 6.23%, variance 0.78 — ours must be in the band.
    assert!(table.avg_abs_error() > 3.0 && table.avg_abs_error() < 9.0);
    assert!(table.error_variance() < 3.0, "variance {}", table.error_variance());
}

#[test]
fn weak_scaling_runtime_grows_linearly_with_stages() {
    // The paper's observation: "the linear increase in runtime … is due to
    // the increase in the number of pipeline stages". Check measurement
    // correlates with the pipeline-depth metric across rows.
    let machine = sim_machines::opteron_gige_sim();
    let fm = FlopModel::calibrate(&validation::row_config(&validation::TABLE2_ROWS[0]), 10);
    let mut rows: Vec<(f64, f64)> = Vec::new();
    for (idx, spec) in validation::TABLE2_ROWS.iter().enumerate() {
        let stages = (3 * (spec.px - 1) + 2 * (spec.py - 1)) as f64;
        let t = validation::measure_row(spec, &machine, &fm, idx as u64 + 77);
        rows.push((stages, t));
    }
    let fit = hwbench::stats::ols(&rows);
    assert!(fit.slope > 0.0, "runtime must grow with pipeline depth");
    assert!(fit.r2 > 0.9, "growth should be strongly linear (r² = {:.3})", fit.r2);
}

#[test]
fn prediction_is_deterministic_and_measurement_seeded() {
    let machine = sim_machines::opteron_gige_sim();
    let spec =
        RowSpec { it: 100, jt: 100, px: 2, py: 2, paper_measured: 8.98, paper_predicted: 9.69 };
    let fm = FlopModel::calibrate(&validation::row_config(&spec), 10);
    let a = validation::measure_row(&spec, &machine, &fm, 1);
    let b = validation::measure_row(&spec, &machine, &fm, 1);
    assert_eq!(a, b, "same seed must reproduce the measurement exactly");
    let c = validation::measure_row(&spec, &machine, &fm, 2);
    assert_ne!(a, c, "different runs see different background load");
    // But runs stay within the noise envelope.
    assert!((a - c).abs() / a < 0.08);
}

#[test]
fn run_table_returns_rows_in_input_order() {
    // The pool starts the largest arrays first; the table must still come
    // back in input order, each row equal to its own one-by-one
    // measurement (seed = index + 1) and prediction. These rows are in
    // ascending PE order, the reverse of the dispatch order.
    let rows = &validation::TABLE1_ROWS[4..8];
    assert!(rows.windows(2).all(|w| w[0].pes() < w[1].pes()));
    let machine = sim_machines::pentium3_myrinet_sim();
    let table = validation::run_table("Table 1", rows, &machine);

    let fm = FlopModel::calibrate(&validation::row_config(&rows[0]), 10);
    let hw = hwbench::benchmark_machine(&machine, &[50], 1);
    assert_eq!(table.rows.len(), rows.len());
    for (idx, (row, spec)) in table.rows.iter().zip(rows).enumerate() {
        assert_eq!(row.spec, *spec, "row {idx} out of order");
        let measured = validation::measure_row(spec, &machine, &fm, idx as u64 + 1);
        let predicted = validation::predict_row(spec, &hw);
        assert_eq!(row.measured_secs.to_bits(), measured.to_bits(), "row {idx} measured");
        assert_eq!(row.predicted_secs.to_bits(), predicted.to_bits(), "row {idx} predicted");
        assert_eq!(row.error_pct, experiments::error_pct(measured, predicted), "row {idx} error");
    }
}
