//! Workspace-level tests of the process-variation & yield subsystem:
//!
//! * the quick()-scale yield figures, rendered from the fleet aggregate, are
//!   pinned, byte for byte, to `tests/golden/yield.csv` (yield-vs-voltage
//!   curves followed by the per scheme Vcc-min summary, exactly what
//!   `vccmin-repro yield --csv` emits), and the per-die linear scan of
//!   `YieldStudy` finds the same histogram there;
//! * in the i.i.d. limit (zero systematic variance) the fleet's Monte-Carlo
//!   yield curve cross-validates against the closed forms of
//!   `vccmin_analysis::yield_model` (binomial capacity tail for
//!   block-disabling, whole-cache-failure complement for word-disabling);
//! * zero-systematic-variance voltage sampling is statistically — in fact
//!   bit-for-bit — equivalent to the classic i.i.d. `FaultMap::generate`.
//!
//! To regenerate the golden snapshot after an *intentional* change:
//!
//! ```text
//! cargo run --release --bin vccmin-repro -- yield --csv --out tests/golden/yield.csv
//! ```
//!
//! and say so loudly in the commit message.

use vccmin_core::analysis::word_disable::WordDisableParams;
use vccmin_core::analysis::yield_model;
use vccmin_core::experiments::fleet::{FleetParams, FleetStudy};
use vccmin_core::experiments::yield_study::{YieldParams, YieldStudy};
use vccmin_core::{CacheGeometry, DieVariation, FaultMap, PfailVoltageModel, VariationModel};

const GOLDEN: &str = include_str!("../golden/yield.csv");

#[test]
fn quick_scale_yield_study_matches_its_snapshot() {
    let params = YieldParams::quick();
    let fleet = FleetStudy::run(&FleetParams::new(params.clone()));
    let actual = format!(
        "{}{}",
        fleet.yield_curve().to_csv(),
        fleet.vccmin_summary().to_csv()
    );
    assert_eq!(
        actual, GOLDEN,
        "yield study drifted from tests/golden/yield.csv; if the change is \
         intentional, regenerate the snapshot per the module docs"
    );
    let (hist, dead) = YieldStudy::run(&params).min_voltage_histogram();
    assert_eq!(fleet.hist, hist, "the linear scan disagrees at quick scale");
    assert_eq!(fleet.dead, dead, "the linear scan disagrees at quick scale");
}

#[test]
fn golden_yield_snapshot_has_the_expected_shape() {
    let lines: Vec<&str> = GOLDEN.lines().collect();
    // Curve: header + 11 grid voltages + mean; summary: header + 5 schemes + mean.
    assert_eq!(lines.len(), 13 + 7);
    assert!(lines[0].starts_with("voltage,baseline,"));
    assert!(lines[12].starts_with("mean,"));
    assert!(lines[13].starts_with("scheme,"));
    assert!(lines[19].starts_with("mean,"));
    for line in &lines[..13] {
        assert_eq!(line.split(',').count(), 6, "curve rows: key + 5 schemes");
    }
}

#[test]
fn iid_monte_carlo_yield_matches_the_closed_forms() {
    let bridge = PfailVoltageModel::ispass2010();
    let params = YieldParams {
        dies: 400,
        variation: VariationModel::iid(bridge),
        ..YieldParams::quick()
    };
    let fleet = FleetStudy::run_parallel(&FleetParams::new(params.clone()));
    let curve = fleet.yield_curve();
    let labels = YieldStudy::scheme_labels();
    let geom = CacheGeometry::ispass2010_l1().to_array_geometry();
    let wd_params = WordDisableParams::ispass2010();

    for (&v, (_, row)) in fleet.grid.iter().zip(&curve.rows) {
        // Monte-Carlo yield of one scheme at this voltage: its curve cell.
        let monte_carlo_yield = |label: &str| {
            let scheme = labels.iter().position(|l| l == label).expect("scheme in registry");
            row[scheme].expect("the yield curve has no empty cells")
        };
        let pfail = bridge.pfail(v);
        // Block-disabling: binomial capacity-tail closed form (Eq. 3).
        let analytical = yield_model::block_disable_yield(&geom, pfail, params.min_capacity);
        let empirical = monte_carlo_yield("block disabling");
        assert!(
            (analytical - empirical).abs() < 0.05,
            "block-disabling at V={v}: closed-form {analytical} vs Monte Carlo {empirical}"
        );
        // Word-disabling: complement of the whole-cache failure probability
        // (Eqs. 4-5); with a 0.5 capacity floor, usable == operational.
        let analytical = yield_model::word_disable_yield(&geom, &wd_params, pfail);
        let empirical = monte_carlo_yield("word disabling");
        assert!(
            (analytical - empirical).abs() < 0.05,
            "word-disabling at V={v}: closed-form {analytical} vs Monte Carlo {empirical}"
        );
        // The idealized baseline has unit yield everywhere.
        assert_eq!(monte_carlo_yield("baseline"), 1.0);
    }
}

#[test]
fn closed_form_expected_capacity_matches_monte_carlo_die_capacity() {
    let bridge = PfailVoltageModel::ispass2010();
    let geometry = CacheGeometry::ispass2010_l1();
    let die = DieVariation::sample(&geometry, &VariationModel::iid(bridge), 1);
    let v = 0.5;
    let n: u64 = 60;
    let mean_cap: f64 = (0..n)
        .map(|seed| {
            FaultMap::generate_at_voltage(&die, v, seed).fault_free_block_fraction()
        })
        .sum::<f64>()
        / n as f64;
    let analytical = yield_model::expected_capacity_at_voltage(
        &geometry.to_array_geometry(),
        &bridge,
        v,
    );
    assert!(
        (mean_cap - analytical).abs() < 0.02,
        "expected per-die capacity at V={v}: closed-form {analytical} vs Monte Carlo {mean_cap}"
    );
}

#[test]
fn zero_systematic_sampling_is_statistically_equivalent_to_iid_generate() {
    // The degenerate case must reduce to today's i.i.d. model. Sampling with
    // the *same* seed is bit-identical (the strongest possible equivalence);
    // across disjoint seed sets the aggregate fault statistics agree.
    let bridge = PfailVoltageModel::ispass2010();
    let geometry = CacheGeometry::ispass2010_l1();
    let die = DieVariation::sample(&geometry, &VariationModel::iid(bridge), 3);
    let v = 0.5;
    let pfail = bridge.pfail(v);

    for seed in [0u64, 1, 99] {
        assert_eq!(
            FaultMap::generate_at_voltage(&die, v, seed),
            FaultMap::generate(&geometry, pfail, seed),
            "zero-systematic sampling must be bit-identical to the i.i.d. model"
        );
    }

    let n: u64 = 40;
    let words_per_map = (geometry.blocks() * geometry.words_per_block()) as f64;
    let at_voltage: f64 = (0..n)
        .map(|s| FaultMap::generate_at_voltage(&die, v, s).stats().faulty_words as f64)
        .sum::<f64>()
        / (n as f64 * words_per_map);
    let iid: f64 = (0..n)
        .map(|s| {
            FaultMap::generate(&geometry, pfail, 10_000 + s).stats().faulty_words as f64
        })
        .sum::<f64>()
        / (n as f64 * words_per_map);
    assert!(
        (at_voltage - iid).abs() < 0.005,
        "word-fault rates diverge: at-voltage {at_voltage} vs i.i.d. {iid}"
    );
}

#[test]
fn systematic_variation_widens_the_vccmin_distribution() {
    // The entire point of the subsystem: with systematic variation, dies are
    // no longer interchangeable — the population's per-scheme Vcc-min spread
    // must be at least as wide as the i.i.d. population's.
    let quick = YieldParams::quick();
    let iid = YieldParams {
        variation: VariationModel::iid(PfailVoltageModel::ispass2010()),
        ..quick.clone()
    };
    let spread = |params: &YieldParams| {
        let summary = FleetStudy::run(&FleetParams::new(params.clone())).vccmin_summary();
        summary
            .rows
            .iter()
            .map(|(_, v)| v[2].unwrap_or(0.0) - v[1].unwrap_or(0.0)) // worst - best
            .fold(0.0f64, f64::max)
    };
    assert!(spread(&quick) >= spread(&iid));
}
