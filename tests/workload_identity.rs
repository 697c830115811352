//! Workload-refactor bit-identity: the wavefront path through the
//! workload abstraction must reproduce the pre-refactor outputs exactly.
//!
//! * Golden campaign digests at 6, 64 and 512 ranks, captured on the
//!   pre-refactor tree (analytic backend trio plus a reduced DES fixture
//!   at 6 ranks). Bless after an intentional model change with
//!   `BLESS_GOLDEN=1 cargo test --test workload_identity -- --nocapture`.
//! * A differential proptest: for random parameter points, every analytic
//!   backend reached through `Backend::predict` on a `Workload` must be
//!   bit-identical to the direct `Sweep3dParams`-typed call.

use pace_core::Sweep3dParams;
use proptest::prelude::*;
use sweepsvc::{SweepEngine, SweepSpec};
use wavefront_models::Backend;

mod common;
use common::campaign_digest;

/// The analytic concurrence trio over the validation weak-scaling family
/// with a rate what-if axis — the pre-refactor scenario-id layout this
/// digest pins.
fn analytic_campaign(px: usize, py: usize) -> SweepSpec {
    SweepSpec::new()
        .machine(registry::builtin("opteron-myrinet").unwrap())
        .rate_multipliers(vec![1.0, 1.25])
        .problem(format!("{px}x{py}"), Sweep3dParams::weak_scaling_50cubed(px, py))
        .backends(vec![Backend::Pace, Backend::LogGp, Backend::Hoisie])
}

/// A reduced DES campaign (nz cut to 20 planes, one iteration) cheap
/// enough for debug tier-1 runs at 6 ranks.
fn des_campaign(px: usize, py: usize) -> SweepSpec {
    let mut params = Sweep3dParams::speculative_20m(px, py);
    params.iterations = 1;
    params.nz = 20;
    SweepSpec::new()
        .machine(registry::builtin("opteron-myrinet").unwrap())
        .rate_multipliers(vec![1.0, 1.5])
        .problem(format!("{px}x{py}"), params)
        .backends(vec![Backend::DesSim])
}

/// `(px, py, analytic digest)` at 6, 64 and 512 ranks — captured on the
/// pre-refactor tree.
const GOLDEN_ANALYTIC: [(usize, usize, u64); 3] =
    [(2, 3, 0xa06b5f9bcaf28914), (8, 8, 0xaedf67a5118e29ac), (16, 32, 0x73d27a3d1db29a27)];

/// `(px, py, DES digest)` for the reduced DES fixture.
const GOLDEN_DES: [(usize, usize, u64); 1] = [(2, 3, 0x34e85e6d3552a7fa)];

#[test]
fn wavefront_campaigns_pin_pre_refactor_digests() {
    let bless = std::env::var("BLESS_GOLDEN").is_ok();
    for &(px, py, want) in &GOLDEN_ANALYTIC {
        let out = SweepEngine::with_workers(1).run(&analytic_campaign(px, py));
        let got = campaign_digest(&out.results);
        if bless {
            println!("    ({px}, {py}, 0x{got:016x}),");
        } else {
            assert_eq!(got, want, "{px}x{py} analytic digest drifted (0x{got:016x})");
        }
    }
    for &(px, py, want) in &GOLDEN_DES {
        let out = SweepEngine::with_workers(1).run(&des_campaign(px, py));
        let got = campaign_digest(&out.results);
        if bless {
            println!("    des ({px}, {py}, 0x{got:016x}),");
        } else {
            assert_eq!(got, want, "{px}x{py} DES digest drifted (0x{got:016x})");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]
    /// Differential check over random parameter points: the backend
    /// dispatch must be bit-identical to the direct typed path on every
    /// analytic backend.
    #[test]
    fn backend_dispatch_is_bit_identical_to_direct_calls(
        px in 1usize..9,
        py in 1usize..9,
        nz in 10usize..60,
        mk in 1usize..12,
        mult_sel in 0usize..3,
    ) {
        use pace_core::{Sweep3dModel, Workload};
        use wavefront_models::{HoisieModel, LogGpModel};
        let mut params = Sweep3dParams::weak_scaling_50cubed(px, py);
        params.nz = nz;
        params.mk = mk;
        let machine = registry::builtin("pentium3-myrinet").unwrap();
        let machine = match mult_sel {
            0 => machine,
            _ => machine.with_rate_scaled(1.0 + 0.25 * mult_sel as f64),
        };
        let workload = Workload::Wavefront(params);

        // PACE through the backend == the direct model, bit for bit.
        let direct = Sweep3dModel::new(params).predict(&machine.analytic).report;
        let via_backend = Backend::Pace.predict(&workload, &machine).unwrap();
        prop_assert_eq!(&via_backend, &direct);

        // Closed-form backends: the dispatch wraps the same scalar.
        let loggp = LogGpModel.predict_secs(&params, &machine.analytic);
        let via = Backend::LogGp.predict(&workload, &machine).unwrap();
        prop_assert_eq!(via.total_secs.to_bits(), loggp.to_bits());
        let hoisie = HoisieModel.predict_secs(&params, &machine.analytic);
        let via = Backend::Hoisie.predict(&workload, &machine).unwrap();
        prop_assert_eq!(via.total_secs.to_bits(), hoisie.to_bits());
    }
}
