//! The closed-form figures of the paper (Figs. 1 and 3–7), rendered as
//! [`FigureTable`]s for the paper's running-example cache geometry.

use vccmin_analysis::word_disable::WordDisableParams;
use vccmin_analysis::{block_faults, capacity, incremental, voltage, word_disable, ArrayGeometry};
use vccmin_cache::{repair, CacheGeometry};

use crate::report::FigureTable;

/// Default number of sweep points used when regenerating the figures.
pub const DEFAULT_STEPS: usize = 51;

/// Figure 1: normalized voltage, power and performance versus frequency, for classic
/// DVS (a) and DVS extended below Vcc-min (b).
#[must_use]
pub fn figure1(steps: usize) -> FigureTable {
    let model = voltage::VoltageScalingModel::paper_illustration();
    let classic = model.classic_curve(steps);
    let below = model.below_vccmin_curve(steps);
    let mut table = FigureTable::new(
        "Figure 1: voltage scaling vs power and performance",
        "frequency",
        vec![
            "voltage (a)".into(),
            "power (a)".into(),
            "performance (a)".into(),
            "voltage (b)".into(),
            "power (b)".into(),
            "performance (b)".into(),
        ],
    );
    for (c, b) in classic.iter().zip(&below) {
        table.push_row(
            format!("{:.2}", c.frequency),
            vec![c.voltage, c.power, c.performance, b.voltage, b.power, b.performance],
        );
    }
    table
}

/// Figure 3: mean fraction of faulty blocks as a function of `pfail` (Eq. 2).
#[must_use]
pub fn figure3(steps: usize) -> FigureTable {
    let geom = ArrayGeometry::ispass2010_l1();
    let mut table = FigureTable::new(
        "Figure 3: fraction of faulty blocks vs pfail (32KB, 64B/block)",
        "pfail",
        vec!["faulty block fraction".into()],
    );
    for p in block_faults::sweep_pfail(&geom, 0.01, steps) {
        table.push_row(format!("{:.5}", p.pfail), vec![p.faulty_block_fraction]);
    }
    table
}

/// Figure 4: probability distribution of cache capacity at `pfail = 0.001` (Eq. 3).
#[must_use]
pub fn figure4() -> FigureTable {
    let dist = capacity::CapacityDistribution::new(&ArrayGeometry::ispass2010_l1(), 0.001);
    let mut table = FigureTable::new(
        "Figure 4: probability distribution of cache capacity at pfail=0.001",
        "capacity",
        vec!["probability".into()],
    );
    for (cap, prob) in dist.capacity_series() {
        table.push_row(format!("{:.4}", cap), vec![prob]);
    }
    table
}

/// Figure 5: probability of whole-cache failure for word-disabling vs `pfail`
/// (Eqs. 4–5).
#[must_use]
pub fn figure5(steps: usize) -> FigureTable {
    let geom = ArrayGeometry::ispass2010_l1();
    let params = WordDisableParams::ispass2010();
    let mut table = FigureTable::new(
        "Figure 5: probability of whole-cache failure (word-disabling) vs pfail",
        "pfail",
        vec!["P(whole cache failure)".into()],
    );
    for p in word_disable::sweep_whole_cache_failure(&geom, &params, 0.002, steps) {
        table.push_row(
            format!("{:.5}", p.pfail),
            vec![p.whole_cache_failure_probability],
        );
    }
    table
}

/// Figure 6: block-disabling capacity vs `pfail` for 32/64/128-byte blocks at
/// constant total cache size.
#[must_use]
pub fn figure6(steps: usize) -> FigureTable {
    let geom = ArrayGeometry::ispass2010_l1();
    let series = block_faults::block_size_sensitivity(&geom, &[32, 64, 128], 0.005, steps)
        // simlint::allow(panic-path, "fixed paper constants; divisibility is pinned by unit tests")
        .expect("paper block sizes divide the cache size");
    let mut table = FigureTable::new(
        "Figure 6: block-disabling capacity vs pfail for different block sizes",
        "pfail",
        series
            .iter()
            .map(|s| format!("{} byte", s.block_bytes))
            .collect(),
    );
    for i in 0..series[0].points.len() {
        table.push_row(
            format!("{:.5}", series[0].points[i].pfail),
            series.iter().map(|s| s.points[i].capacity).collect(),
        );
    }
    table
}

/// Figure 7: capacity of the incremental word-disabling scheme vs `pfail` (Eq. 6).
#[must_use]
pub fn figure7(steps: usize) -> FigureTable {
    let geom = ArrayGeometry::ispass2010_l1();
    let params = WordDisableParams::ispass2010();
    let mut table = FigureTable::new(
        "Figure 7: capacity of incremental word-disabling vs pfail",
        "pfail",
        vec!["capacity".into()],
    );
    for p in incremental::sweep_capacity(&geom, &params, 0.01, steps) {
        table.push_row(format!("{:.5}", p.pfail), vec![p.capacity]);
    }
    table
}

/// The analytical companion of the simulation scheme matrix: expected
/// low-voltage capacity of every repair scheme in the registry as a function of
/// `pfail`, for the paper's L1. One column per scheme — a new scheme shows up
/// here (and everywhere else) the moment it joins the registry.
#[must_use]
pub fn scheme_capacity_figure(steps: usize) -> FigureTable {
    capacity_sweep(
        "Scheme capacity: expected capacity below Vcc-min vs pfail (32KB, 8-way)",
        &CacheGeometry::ispass2010_l1(),
        steps,
    )
}

/// The L2 companion of [`scheme_capacity_figure`]: expected low-voltage
/// capacity of every registry scheme over the paper's 2 MB unified L2. The
/// closed forms are the same — only the array geometry (32768 blocks of 531
/// cells) changes — which is exactly the point: every cache in the hierarchy
/// limits Vcc-min, and the analytical models quantify the L2's share.
#[must_use]
pub fn l2_scheme_capacity_figure(steps: usize) -> FigureTable {
    capacity_sweep(
        "L2 scheme capacity: expected capacity below Vcc-min vs pfail (2MB, 8-way)",
        &CacheGeometry::ispass2010_l2(),
        steps,
    )
}

/// Expected capacity of every registry scheme over `geom`, at `steps` pfail
/// points from 0 to 0.005.
fn capacity_sweep(title: &str, geom: &CacheGeometry, steps: usize) -> FigureTable {
    assert!(steps >= 2, "a sweep needs at least two points");
    let schemes = repair::registry();
    let mut table = FigureTable::new(
        title,
        "pfail",
        schemes.iter().map(|s| s.label().into()).collect(),
    );
    let max_pfail = 0.005;
    for i in 0..steps {
        let pfail = max_pfail * i as f64 / (steps - 1) as f64;
        table.push_row(
            format!("{pfail:.5}"),
            schemes
                .iter()
                .map(|s| s.expected_capacity(geom, pfail))
                .collect(),
        );
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_analysis_figure_has_the_expected_shape() {
        let f1 = figure1(DEFAULT_STEPS);
        assert_eq!(f1.rows.len(), DEFAULT_STEPS);
        assert_eq!(f1.series_labels.len(), 6);

        let f3 = figure3(DEFAULT_STEPS);
        assert_eq!(f3.rows.len(), DEFAULT_STEPS);
        // Faulty fraction starts at 0 and exceeds 90% by pfail=0.01 (Fig. 3).
        assert_eq!(f3.rows[0].1[0], Some(0.0));
        assert!(f3.rows.last().unwrap().1[0].unwrap() > 0.9);

        let f4 = figure4();
        assert_eq!(f4.rows.len(), 513);
        let total: f64 = f4.rows.iter().filter_map(|(_, v)| v[0]).sum();
        assert!((total - 1.0).abs() < 1e-6);

        let f5 = figure5(DEFAULT_STEPS);
        assert!(f5.rows.last().unwrap().1[0].unwrap() > f5.rows[1].1[0].unwrap());

        let f6 = figure6(DEFAULT_STEPS);
        assert_eq!(f6.series_labels, vec!["32 byte", "64 byte", "128 byte"]);

        let f7 = figure7(DEFAULT_STEPS);
        assert!((f7.rows[0].1[0].unwrap() - 1.0).abs() < 1e-9);
        assert!(f7.rows.last().unwrap().1[0].unwrap() < 0.5);
    }

    #[test]
    fn scheme_capacity_figure_spans_the_registry_and_keeps_its_ordering() {
        let table = scheme_capacity_figure(21);
        assert_eq!(table.rows.len(), 21);
        assert_eq!(
            table.series_labels,
            vec!["baseline", "block disabling", "word disabling", "bit fix", "way sacrifice"]
        );
        for (key, values) in &table.rows {
            let (baseline, block, bitfix, ws) =
                (values[0], values[1].unwrap(), values[3].unwrap(), values[4].unwrap());
            assert_eq!(baseline, Some(1.0), "baseline never degrades");
            assert!(
                bitfix >= block && block >= ws,
                "{key}: bit-fix ({bitfix}) >= block ({block}) >= way-sacrifice ({ws})"
            );
            for v in values {
                assert!((0.0..=1.0).contains(&v.unwrap()));
            }
        }
    }

    #[test]
    fn l2_scheme_capacity_tracks_the_l1_shape_but_not_its_values() {
        let l1 = scheme_capacity_figure(21);
        let l2 = l2_scheme_capacity_figure(21);
        assert_eq!(l2.rows.len(), 21);
        assert_eq!(l2.series_labels, l1.series_labels);
        for ((key, l2_values), (_, l1_values)) in l2.rows.iter().zip(&l1.rows) {
            let (baseline, block, word, bitfix, ws) =
                (
                l2_values[0],
                l2_values[1].unwrap(),
                l2_values[2].unwrap(),
                l2_values[3].unwrap(),
                l2_values[4].unwrap(),
            );
            assert_eq!(baseline, Some(1.0));
            assert!(bitfix >= block && block >= ws, "{key}: ordering violated");
            // The L2's slightly smaller per-block cell count (531 vs 537: an
            // 18-bit tag instead of 24) keeps marginally more blocks alive
            // under block-disabling at any pfail.
            assert!(l2_values[1].unwrap() >= l1_values[1].unwrap() - 1e-12, "{key}");
            // Word-disabling's whole-cache failure is far likelier over 64x
            // more blocks, so its expected capacity can only be lower.
            assert!(word <= l1_values[2].unwrap() + 1e-12, "{key}");
            for v in l2_values {
                assert!((0.0..=1.0).contains(&v.unwrap()));
            }
        }
    }

    #[test]
    fn figure3_crosses_half_capacity_near_paper_pfail() {
        let table = figure3(1001);
        // Find the first pfail where the faulty fraction exceeds 0.5.
        let crossing = table
            .rows
            .iter()
            .find(|(_, v)| v[0].unwrap() > 0.5)
            .map(|(k, _)| k.parse::<f64>().unwrap())
            .unwrap();
        assert!(
            (0.0012..0.0015).contains(&crossing),
            "50% crossing at pfail={crossing}, expected near 0.0013"
        );
    }
}
