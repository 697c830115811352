//! Golden bits for the studies that calibrate, measure and predict
//! outside the validation tables: ablation, blocking, strong scaling,
//! rendezvous, robustness and the ASCI-goal extrapolation.
//!
//! Every number is pinned to its exact f64 bit pattern. The DES is seeded
//! and the analytic model is closed-form, so the bits are stable across
//! hosts; a refactor of how the studies build their problems or their
//! calibration must reproduce them exactly. Each study runs at the size
//! its `experiments` subcommand uses (robustness on Table 2's rows), and
//! the whole file takes a few seconds in a debug build.
//!
//! The last tests pin the problem descriptions themselves: `experiments
//! obs` measures exactly the Table 2 row it names, and the DES
//! configuration derived from each study's `Sweep3dParams` equals the
//! configuration the studies used to build by hand, for every Table 1–3
//! row, both figure ladders and the strong-scaling and blocking points.

use experiments::speculation::{processor_ladder, Problem};
use experiments::validation::{self, TABLE1_ROWS, TABLE2_ROWS, TABLE3_ROWS};
use experiments::{
    ablation, asci_goals, blocking, observability, rendezvous, robustness, strong_scaling,
};
use pace_core::workload::sweep3d_problem_config;
use pace_core::Sweep3dParams;
use registry::sim as sim_machines;
use sweep3d::ProblemConfig;

/// Compare `got` with `pins` bit for bit; on mismatch, print the whole
/// vector in pin syntax so a deliberate change can be re-recorded.
fn assert_bits(study: &str, got: &[f64], pins: &[u64]) {
    let bits: Vec<u64> = got.iter().map(|v| v.to_bits()).collect();
    if bits != pins {
        let listing: Vec<String> = bits.iter().map(|b| format!("{b:#018x}")).collect();
        panic!("{study}: bits differ from the pins; got [{}]\nvalues {got:?}", listing.join(", "));
    }
}

/// `(measured, coarse, opcode)` seconds: the Pentium 3 case, then the
/// Opteron case.
const ABLATION_BITS: [u64; 6] = [
    0x403a6abdaa9de714,
    0x403bfbdf6788b1b6,
    0x402375bf5d7f8ce9,
    0x40219ee17f6005d6,
    0x402324cfaacd0db8,
    0x401b8f68fea7477c,
];

#[test]
fn ablation_matches_golden_bits() {
    let got: Vec<f64> = ablation::paper_cases()
        .iter()
        .flat_map(|r| [r.measured_secs, r.coarse_secs, r.opcode_secs])
        .collect();
    assert_bits("ablation", &got, &ABLATION_BITS);
}

/// `(measured, predicted)` per valid `(mk, mmi)` point, mk-major.
const BLOCKING_BITS: [u64; 40] = [
    0x3ff85f4151ce38bc,
    0x3ffad5c8fd1e7126,
    0x3ff7cee28e1ef13b,
    0x3ffa11fc64f27037,
    0x3ff7c34175f069b6,
    0x3ff9f80e5801a14c,
    0x3ff823fd8b14a82c,
    0x3ffa5422bc6a6696,
    0x3ff7cee28e1ef13b,
    0x3ffa11fc64f27037,
    0x3ff7d883b71c6912,
    0x3ffa0897eddf9ee5,
    0x3ff823fd8b14a82c,
    0x3ffa5422bc6a6696,
    0x3ff94948c3e5e89a,
    0x3ffb8bb26da856a9,
    0x3ff84721e47c2202,
    0x3ffa2a1e2b4387e4,
    0x3ff943b6ed4a53f1,
    0x3ffb1e2e5011b82c,
    0x3ffa5b9631e95301,
    0x3ffc3437c3ebbf40,
    0x3ffdc16a346e7512,
    0x3fff984d6e85ab4f,
    0x3ffa0cf4c77d1243,
    0x3ffb1e2e5011b82c,
    0x3ffc3fd187533286,
    0x3ffd52bf8b88bc08,
    0x3ffe8219abbb043c,
    0x3fff984d6e85ab4f,
    0x4002c3659bff4bcb,
    0x40033cf9df813242,
    0x3ffd33f5bbf4613d,
    0x3ffd52bf8b88bc08,
    0x4000e9230f81bf4d,
    0x4000f10d3db20ab7,
    0x400351283ad2ef54,
    0x40033cf9df813242,
    0x400a4f66c0933b12,
    0x400a438b3671a300,
];

#[test]
fn blocking_matches_golden_bits() {
    let pts = blocking::sweep(
        &sim_machines::pentium3_myrinet_sim(),
        20,
        2,
        4,
        &[1, 2, 5, 10, 20],
        &[1, 2, 3, 6],
    );
    let got: Vec<f64> = pts.iter().flat_map(|p| [p.measured_secs, p.predicted_secs]).collect();
    assert_bits("blocking", &got, &BLOCKING_BITS);
}

/// `(measured, predicted, speedup)` per array of the default ladder.
const STRONG_SCALING_BITS: [u64; 15] = [
    0x404504e00e22ca04,
    0x404569616ef51ab4,
    0x3ff0000000000000,
    0x4025d05f1fa5046b,
    0x402658ac8b9d087d,
    0x400ed57b15161d94,
    0x4007df8d64a7cd9a,
    0x4008e422243e4bd8,
    0x402c2c9766e395ff,
    0x3ffa180e4a5968fc,
    0x3ffba0c8ce42dcda,
    0x4039c6c44506bf61,
    0x3fee257f37c95677,
    0x3ff04fbb3f934a66,
    0x40464fb69954b836,
];

#[test]
fn strong_scaling_matches_golden_bits() {
    let pts = strong_scaling::default_study();
    let got: Vec<f64> =
        pts.iter().flat_map(|p| [p.measured_secs, p.predicted_secs, p.speedup]).collect();
    assert_bits("strong scaling", &got, &STRONG_SCALING_BITS);
}

/// `(eager, rendezvous)` seconds per array, then the two fill slopes.
const RENDEZVOUS_BITS: [u64; 12] = [
    0x3ff93034e19e46d9,
    0x3ff961a5ce1f444b,
    0x3ffb7a49ed9776f7,
    0x3ffc263cb3b31628,
    0x3ffe8219abbb043c,
    0x3fff33dc377eaddd,
    0x4001831b05e4bbb0,
    0x4001e226d01bcdb4,
    0x4003049ce52c183e,
    0x40036454261f5ce8,
    0x3fa82b92ef935810,
    0x3fa8f6130b279010,
];

#[test]
fn rendezvous_matches_golden_bits() {
    let study = rendezvous::pentium3_study();
    let mut got: Vec<f64> = study.points.iter().flat_map(|&(_, e, r)| [e, r]).collect();
    got.extend([study.eager_slope, study.rendezvous_slope]);
    assert_bits("rendezvous", &got, &RENDEZVOUS_BITS);
}

/// `(mean signed, max |error|)` per campaign, then the grand mean and
/// the campaign spread.
const ROBUSTNESS_BITS: [u64; 18] = [
    0xc016c8291a14810d,
    0x401ebdae1674a387,
    0xc0178d1ee472e06d,
    0x401f1f2ada90df96,
    0xc016584e26568d3b,
    0x401bbe6efffe243c,
    0xc0134504680d29b5,
    0x40185faf117b56ae,
    0xc016b2d3b62f0cae,
    0x401cb2661042485c,
    0xc014f4336864da4c,
    0x401e1198180a238a,
    0xc017d35228d3ff1b,
    0x401ddcbf902f1f1e,
    0xc0148d5e66ffca73,
    0x401d54bdfdb0b3c7,
    0xc015ff4a476a591d,
    0x3fd7bbc41f120fe4,
];

#[test]
fn robustness_matches_golden_bits() {
    let r = robustness::run(&sim_machines::opteron_gige_sim(), &TABLE2_ROWS, 8);
    let mut got: Vec<f64> = r.campaigns.iter().flat_map(|c| [c.mean_signed, c.max_abs]).collect();
    got.extend([r.grand_mean, r.mean_spread]);
    assert_bits("robustness", &got, &ROBUSTNESS_BITS);
}

/// `(benchmark, full problem)` seconds: the 20M problem, then the 1B one.
const ASCI_BITS: [u64; 4] =
    [0x3fe340c681e04e4b, 0x40d1a06dbd27bbae, 0x4027e567c741d957, 0x4115e0a6e30ce95b];

#[test]
fn asci_goals_match_golden_bits() {
    let got: Vec<f64> = [Problem::TwentyMillion, Problem::OneBillion]
        .into_iter()
        .map(asci_goals::paper_setting)
        .flat_map(|e| [e.benchmark_secs, e.full_problem_secs])
        .collect();
    assert_bits("asci goals", &got, &ASCI_BITS);
}

/// The pre-derivation recipe of the figure problems: a fixed per-PE
/// subgrid on the weak-scaling defaults.
fn hand_speculative(nx: usize, ny: usize, nz: usize, px: usize, py: usize) -> ProblemConfig {
    ProblemConfig { it: nx * px, jt: ny * py, kt: nz, ..ProblemConfig::weak_scaling(1, px, py) }
}

/// The pre-derivation strong-scaling recipe: a fixed global grid,
/// `mk` capped by the grid's k extent.
fn hand_strong(it: usize, jt: usize, kt: usize, px: usize, py: usize) -> ProblemConfig {
    ProblemConfig { it, jt, kt, mk: 10.min(kt), ..ProblemConfig::weak_scaling(1, px, py) }
}

fn derived(params: Sweep3dParams) -> ProblemConfig {
    sweep3d_problem_config(&params).expect("study problems are valid")
}

/// `experiments obs` runs Table 2's 200×200 / 4×4 row; it must measure
/// the value the table prints for that row.
#[test]
fn obs_measures_the_table_row_it_names() {
    let report = observability::run_representative(&obs::Obs::enabled());
    let row = &validation::table2().rows[observability::TABLE2_ROW];
    assert_eq!(report.spec, row.spec);
    assert_eq!(report.measured_secs.to_bits(), row.measured_secs.to_bits());
    assert_eq!(report.predicted_secs.to_bits(), row.predicted_secs.to_bits());
}

#[test]
fn derived_configs_equal_the_hand_built_ones() {
    for rows in [&TABLE1_ROWS[..], &TABLE2_ROWS[..], &TABLE3_ROWS[..]] {
        for spec in rows {
            let hand = ProblemConfig {
                it: spec.it,
                jt: spec.jt,
                ..ProblemConfig::weak_scaling(50, spec.px, spec.py)
            };
            assert_eq!(derived(spec.params()), hand, "{spec:?}");
            assert_eq!(validation::row_config(spec), hand, "{spec:?}");
        }
    }
    for (px, py) in processor_ladder() {
        for (problem, (nx, ny, nz)) in
            [(Problem::TwentyMillion, (5, 5, 100)), (Problem::OneBillion, (25, 25, 200))]
        {
            let hand = hand_speculative(nx, ny, nz, px, py);
            assert_eq!(derived(problem.params(px, py)), hand, "{problem:?} {px}x{py}");
            assert_eq!(problem.config(px, py), hand, "{problem:?} {px}x{py}");
        }
    }
    // The strong-scaling points: the default ladder and a short grid.
    for (it, jt, kt, arrays) in [
        (120, 120, 40, &[(1, 1), (2, 2), (4, 4), (4, 8), (8, 8)][..]),
        (40, 40, 20, &[(1, 1), (2, 2), (2, 4)]),
    ] {
        for &(px, py) in arrays {
            let params = strong_scaling::params(it, jt, kt, px, py);
            assert_eq!(derived(params), hand_strong(it, jt, kt, px, py), "{px}x{py}");
        }
    }
    // The blocking points: the CLI grid (20³ on 2x4) and the unit-test one.
    for (cells, px, py, mks, mmis) in
        [(20, 2, 4, &[1, 2, 5, 10, 20][..], &[1, 2, 3, 6][..]), (10, 1, 4, &[1, 5, 10], &[1, 6])]
    {
        for &mk in mks {
            for &mmi in mmis {
                let params = Sweep3dParams {
                    nx: cells,
                    ny: cells,
                    nz: cells,
                    mk,
                    mmi,
                    ..Sweep3dParams::weak_scaling_50cubed(px, py)
                };
                let hand = ProblemConfig { mk, mmi, ..ProblemConfig::weak_scaling(cells, px, py) };
                assert_eq!(derived(params), hand, "{cells}^3 on {px}x{py}: mk={mk} mmi={mmi}");
            }
        }
    }
}
