//! Consistency checks between the closed-form analysis (Section IV) and the Monte
//! Carlo fault-map / cache machinery: the two independent implementations must
//! agree on capacities and failure probabilities.

use vccmin_core::analysis::word_disable::WordDisableParams;
use vccmin_core::analysis::{block_faults, capacity::CapacityDistribution, word_disable};
use vccmin_core::cache::repair;
use vccmin_core::cache::{CacheHierarchy, DisablingScheme, HierarchyConfig, VoltageMode};
use vccmin_core::{CacheGeometry, FaultMap};

#[test]
fn sampled_capacity_matches_the_analytical_distribution() {
    let geom = CacheGeometry::ispass2010_l1();
    let array = geom.to_array_geometry();
    let pfail = 0.001;
    let n = 200;
    let caps: Vec<f64> = (0..n)
        .map(|s| FaultMap::generate(&geom, pfail, s).fault_free_block_fraction())
        .collect();
    let empirical_mean = caps.iter().sum::<f64>() / n as f64;
    let dist = CapacityDistribution::new(&array, pfail);
    assert!(
        (empirical_mean - dist.mean_capacity()).abs() < 0.01,
        "empirical mean {empirical_mean} vs analytical {}",
        dist.mean_capacity()
    );
    // The paper's observation: block-disabling virtually always keeps more than the
    // 50% capacity word-disabling is stuck with.
    let above_half = caps.iter().filter(|&&c| c > 0.5).count() as u64;
    assert!(
        above_half >= n - 2,
        "only {above_half}/{n} sampled caches kept more than half their capacity"
    );
}

#[test]
fn sampled_whole_cache_failures_match_the_analytical_probability() {
    let geom = CacheGeometry::ispass2010_l1();
    let array = geom.to_array_geometry();
    let params = WordDisableParams::ispass2010();
    // Use a pfail where failures are common enough to measure quickly.
    let pfail = 0.003;
    let analytical = word_disable::whole_cache_failure_probability(&array, &params, pfail);
    let n = 400;
    let failures = (0..n)
        .filter(|&s| !FaultMap::generate(&geom, pfail, s).word_disable_usable(8))
        .count();
    let empirical = failures as f64 / n as f64;
    assert!(
        (empirical - analytical).abs() < 0.05,
        "empirical whole-cache failure rate {empirical} vs analytical {analytical}"
    );
}

#[test]
fn low_voltage_organizations_expose_the_analytical_capacities() {
    let geom = CacheGeometry::ispass2010_l1();
    let array = geom.to_array_geometry();
    let pfail = 0.001;
    let map = FaultMap::generate(&geom, pfail, 99);

    let capacity = |scheme: DisablingScheme| scheme.repair().effective_capacity(&map).unwrap();
    let block_capacity = capacity(DisablingScheme::BlockDisabling);
    let word_capacity = capacity(DisablingScheme::WordDisabling);
    assert_eq!(word_capacity, 0.5);
    assert!(
        (block_capacity - block_faults::mean_capacity(&array, pfail)).abs() < 0.1,
        "sampled block-disable capacity {block_capacity} far from the analytical mean"
    );
    assert!(block_capacity > word_capacity);
}

#[test]
fn every_schemes_analytical_capacity_matches_monte_carlo() {
    // The closed-form expected-capacity model of each repair scheme and the
    // Monte-Carlo mean over sampled fault maps are independent implementations
    // of the same quantity; they must agree within sampling noise. Whole-cache
    // failures (word-disabling) count as zero capacity on both sides.
    let geom = CacheGeometry::ispass2010_l1();
    let n = 150u64;
    for &pfail in &[0.001, 0.003] {
        let maps: Vec<FaultMap> = (0..n)
            .map(|s| FaultMap::generate(&geom, pfail, 0xC0FFEE ^ s))
            .collect();
        for scheme in repair::registry() {
            let analytical = scheme.expected_capacity(&geom, pfail);
            let empirical = maps
                .iter()
                .map(|m| scheme.effective_capacity(m).unwrap_or(0.0))
                .sum::<f64>()
                / n as f64;
            assert!(
                (empirical - analytical).abs() < 0.02,
                "{} at pfail={pfail}: Monte-Carlo {empirical} vs analytical {analytical}",
                scheme.name()
            );
        }
    }
}

#[test]
fn analytical_capacity_ordering_matches_the_scheme_story() {
    // bit-fix >= block-disable >= way-sacrifice > word-disable at the paper's
    // operating point, for both the analytical models and a sampled map.
    let geom = CacheGeometry::ispass2010_l1();
    let pfail = 0.001;
    let cap = |s: DisablingScheme| s.repair().expected_capacity(&geom, pfail);
    assert!(cap(DisablingScheme::BitFix) >= cap(DisablingScheme::BlockDisabling));
    assert!(cap(DisablingScheme::BlockDisabling) >= cap(DisablingScheme::WaySacrifice));
    assert!(cap(DisablingScheme::WaySacrifice) > cap(DisablingScheme::WordDisabling));

    let map = FaultMap::generate(&geom, pfail, 7);
    let eff = |s: DisablingScheme| s.repair().effective_capacity(&map).unwrap();
    assert!(eff(DisablingScheme::BitFix) >= eff(DisablingScheme::BlockDisabling));
    assert!(eff(DisablingScheme::BlockDisabling) >= eff(DisablingScheme::WaySacrifice));
    assert!(eff(DisablingScheme::WaySacrifice) > eff(DisablingScheme::WordDisabling));
}

#[test]
fn fault_free_fault_maps_change_nothing_at_high_voltage() {
    let geom = CacheGeometry::ispass2010_l1();
    let map = FaultMap::generate(&geom, 0.001, 5);
    let cfg = HierarchyConfig::ispass2010(DisablingScheme::BlockDisabling, VoltageMode::High);
    let high = CacheHierarchy::with_all_fault_maps(cfg, Some(&map), Some(&map), None).unwrap();
    assert_eq!(high.l1d_usable_blocks(), geom.blocks());
    assert_eq!(high.l1_hit_latency(), 3);
}
