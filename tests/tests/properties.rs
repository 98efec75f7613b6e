//! Property-based tests (proptest) over the core invariants of the analysis, the
//! fault model, the cache machinery and the pipeline.

use proptest::prelude::*;

use vccmin_core::analysis::word_disable::WordDisableParams;
use vccmin_core::analysis::{block_faults, capacity::CapacityDistribution, incremental, word_disable};
use vccmin_core::cache::repair;
use vccmin_core::cache::{
    CacheHierarchy, DisablingScheme, HierarchyConfig, HitLevel, SetAssocCache, VoltageMode,
};
use vccmin_core::cpu::{CpuConfig, OpClass, Pipeline, TraceInstruction};
use vccmin_core::fault::FaultMapStats;
use vccmin_core::{
    ArrayGeometry, CacheGeometry, DieVariation, FaultMap, RepairScheme, VariationModel,
};

/// A scheme's usable capacity fraction for a fault map, counting an
/// unrepairable cache (whole-cache failure) as zero capacity.
fn capacity_or_zero(scheme: &dyn RepairScheme, map: &FaultMap) -> f64 {
    scheme.effective_capacity(map).unwrap_or(0.0)
}

/// Brute-force recount of every aggregate a [`FaultMapStats`] reports, walking
/// each (set, way) block and its words individually.
fn brute_force_stats(map: &FaultMap) -> FaultMapStats {
    let geom = map.geometry();
    let mut stats = FaultMapStats {
        total_blocks: 0,
        faulty_blocks: 0,
        faulty_words: 0,
        faulty_tags: 0,
    };
    for set in 0..geom.sets() {
        for way in 0..geom.associativity() {
            let block = map.block(set, way);
            stats.total_blocks += 1;
            let words = (0..block.words()).filter(|&w| block.word_is_faulty(w)).count() as u64;
            stats.faulty_words += words;
            if block.tag_is_faulty() {
                stats.faulty_tags += 1;
            }
            if words > 0 || block.tag_is_faulty() {
                stats.faulty_blocks += 1;
            }
        }
    }
    stats
}

fn small_pfail() -> impl Strategy<Value = f64> {
    0.0..0.02f64
}

fn any_geometry() -> impl Strategy<Value = ArrayGeometry> {
    (
        1u32..=11,   // log2 blocks (2 .. 2048)
        4u32..=8,    // log2 block bytes (16 .. 256)
        8u64..=40,   // tag bits
    )
        .prop_map(|(lb, lbb, tag)| {
            ArrayGeometry::new(1 << lb, (1u64 << lbb) * 8, tag, 1).expect("valid geometry")
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    // ------------------------------------------------------------- analysis ----

    #[test]
    fn capacity_is_a_probability_and_decreases_with_pfail(
        geom in any_geometry(),
        p1 in small_pfail(),
        p2 in small_pfail(),
    ) {
        let (lo, hi) = if p1 <= p2 { (p1, p2) } else { (p2, p1) };
        let cap_lo = block_faults::mean_capacity(&geom, lo);
        let cap_hi = block_faults::mean_capacity(&geom, hi);
        prop_assert!((0.0..=1.0).contains(&cap_lo));
        prop_assert!((0.0..=1.0).contains(&cap_hi));
        prop_assert!(cap_hi <= cap_lo + 1e-12);
    }

    #[test]
    fn exact_urn_model_agrees_with_fixed_pfail_approximation(
        geom in any_geometry(),
        pfail in 0.0005..0.01f64,
    ) {
        let faults = block_faults::expected_faulty_cells(&geom, pfail).round() as u64;
        prop_assume!(faults >= 50);
        let exact = block_faults::mean_faulty_blocks_exact(&geom, faults).unwrap();
        let approx = block_faults::mean_faulty_blocks(&geom, pfail);
        let rel = (exact - approx).abs() / exact.max(1.0);
        prop_assert!(rel < 0.05, "relative error {rel} between Eq.1 ({exact}) and Eq.2 ({approx})");
    }

    #[test]
    fn capacity_distribution_is_normalized_and_mean_matches(
        geom in any_geometry(),
        pfail in small_pfail(),
    ) {
        let dist = CapacityDistribution::new(&geom, pfail);
        let total: f64 = dist.pmf().iter().sum();
        prop_assert!((total - 1.0).abs() < 1e-6, "pmf sums to {total}");
        let mean_from_pmf: f64 = dist
            .pmf()
            .iter()
            .enumerate()
            .map(|(x, p)| x as f64 * p)
            .sum();
        prop_assert!((mean_from_pmf - dist.mean_fault_free_blocks()).abs() < 1e-6);
    }

    #[test]
    fn whole_cache_failure_probability_is_monotone_and_bounded(
        geom in any_geometry(),
        p1 in small_pfail(),
        p2 in small_pfail(),
    ) {
        let params = WordDisableParams::ispass2010();
        let (lo, hi) = if p1 <= p2 { (p1, p2) } else { (p2, p1) };
        let f_lo = word_disable::whole_cache_failure_probability(&geom, &params, lo);
        let f_hi = word_disable::whole_cache_failure_probability(&geom, &params, hi);
        prop_assert!((0.0..=1.0).contains(&f_lo));
        prop_assert!((0.0..=1.0).contains(&f_hi));
        prop_assert!(f_lo <= f_hi + 1e-12);
    }

    #[test]
    fn incremental_word_disabling_interpolates_between_full_and_disabled(
        geom in any_geometry(),
        pfail in small_pfail(),
    ) {
        let params = WordDisableParams::ispass2010();
        let cap = incremental::expected_capacity(&geom, &params, pfail);
        prop_assert!((0.0..=1.0).contains(&cap));
        let states = incremental::PairStateProbabilities::new(&geom, &params, pfail);
        let total = states.fault_free + states.disabled + states.half_capacity;
        prop_assert!((total - 1.0).abs() < 1e-9);
    }

    // ------------------------------------------------------------ fault maps ----

    #[test]
    fn fault_map_statistics_are_consistent(
        pfail in small_pfail(),
        seed in any::<u64>(),
    ) {
        let geom = CacheGeometry::ispass2010_l1();
        let map = FaultMap::generate(&geom, pfail, seed);
        let stats = map.stats();
        prop_assert_eq!(stats.total_blocks, geom.blocks());
        prop_assert_eq!(stats.faulty_blocks + map.fault_free_blocks(), geom.blocks());
        let per_set_sum: u64 = (0..geom.sets()).map(|s| map.usable_ways_in_set(s)).sum();
        prop_assert_eq!(per_set_sum, map.fault_free_blocks());
        // Regenerating with the same seed reproduces the same map.
        prop_assert_eq!(&map, &FaultMap::generate(&geom, pfail, seed));
    }

    #[test]
    fn fault_map_stats_agree_with_a_brute_force_recount(
        pfail in small_pfail(),
        seed in any::<u64>(),
        die_seed in any::<u64>(),
        voltage in 0.42..0.72f64,
    ) {
        let geom = CacheGeometry::ispass2010_l1();
        // The classic i.i.d. map…
        let map = FaultMap::generate(&geom, pfail, seed);
        prop_assert_eq!(map.stats(), brute_force_stats(&map));
        // …and the voltage-derived process-variation map.
        let die = DieVariation::sample(&geom, &VariationModel::ispass2010(), die_seed);
        let vmap = FaultMap::generate_at_voltage(&die, voltage, seed);
        prop_assert_eq!(vmap.stats(), brute_force_stats(&vmap));
    }

    // ------------------------------------------------------- process variation ----

    #[test]
    fn die_operability_is_monotone_in_voltage_for_every_scheme(
        die_seed in any::<u64>(),
        map_seed in any::<u64>(),
    ) {
        // Per die and scheme, "operational" can only switch off as the supply
        // drops — never back on. This is the per-die statement of "yield is
        // monotone non-increasing as the target voltage drops".
        let geom = CacheGeometry::ispass2010_l1();
        let die = DieVariation::sample(&geom, &VariationModel::ispass2010(), die_seed);
        let grid = [0.70, 0.65, 0.60, 0.55, 0.50, 0.475, 0.45, 0.40];
        for scheme in repair::registry() {
            let mut dead = false;
            for &v in &grid {
                let map = FaultMap::generate_at_voltage(&die, v, map_seed);
                let ok = scheme.meets_capacity_floor(&map, 0.5);
                prop_assert!(
                    !(dead && ok),
                    "{} recovered at {v} after failing at a higher voltage",
                    scheme.name()
                );
                dead = !ok;
            }
        }
    }

    // --------------------------------------------------------- repair schemes ----

    #[test]
    fn no_scheme_ever_exceeds_the_fault_free_capacity(
        pfail in 0.0..0.05f64,
        seed in any::<u64>(),
    ) {
        let geom = CacheGeometry::ispass2010_l1();
        let map = FaultMap::generate(&geom, pfail, seed);
        for scheme in repair::registry() {
            let cap = capacity_or_zero(scheme, &map);
            prop_assert!(
                (0.0..=1.0).contains(&cap),
                "{}: capacity {cap} outside [0, 1]", scheme.name()
            );
        }
        // On a fault-free map every scheme that disables only faulty storage
        // keeps everything; way-sacrifice gives up exactly one way per set.
        let clean = FaultMap::fault_free(&geom);
        for scheme in [DisablingScheme::Baseline, DisablingScheme::BlockDisabling, DisablingScheme::BitFix] {
            prop_assert_eq!(capacity_or_zero(scheme.repair(), &clean), 1.0);
        }
    }

    #[test]
    fn bit_fix_retains_at_least_block_disabling_capacity(
        pfail in 0.0..0.05f64,
        seed in any::<u64>(),
    ) {
        let geom = CacheGeometry::ispass2010_l1();
        let map = FaultMap::generate(&geom, pfail, seed);
        let bitfix = capacity_or_zero(DisablingScheme::BitFix.repair(), &map);
        let block = capacity_or_zero(DisablingScheme::BlockDisabling.repair(), &map);
        prop_assert!(
            bitfix >= block,
            "bit-fix ({bitfix}) must dominate block-disabling ({block}): the \
             sacrificed way is always faulty and repaired blocks only add capacity"
        );
        // Way-sacrifice sits on the other side of block-disabling.
        let ws = capacity_or_zero(DisablingScheme::WaySacrifice.repair(), &map);
        prop_assert!(ws <= block, "way-sacrifice ({ws}) above block-disabling ({block})");
    }

    #[test]
    fn disabling_a_superset_of_faults_never_increases_capacity(
        pfail_a in 0.0..0.02f64,
        pfail_b in 0.0..0.02f64,
        seed_a in any::<u64>(),
        seed_b in any::<u64>(),
    ) {
        let geom = CacheGeometry::ispass2010_l1();
        let a = FaultMap::generate(&geom, pfail_a, seed_a);
        let superset = a.union(&FaultMap::generate(&geom, pfail_b, seed_b));
        for scheme in repair::registry() {
            let before = capacity_or_zero(scheme, &a);
            let after = capacity_or_zero(scheme, &superset);
            prop_assert!(
                after <= before + 1e-12,
                "{}: adding faults raised capacity {before} -> {after}", scheme.name()
            );
        }
    }

    #[test]
    fn disable_masks_count_and_install_exactly_the_ways_they_disable(
        pfail in 0.0..0.05f64,
        seed in any::<u64>(),
        l2 in any::<bool>(),
    ) {
        let geom = if l2 { CacheGeometry::ispass2010_l2() } else { CacheGeometry::ispass2010_l1() };
        let map = FaultMap::generate(&geom, pfail, seed);
        for scheme in repair::registry() {
            let Ok(resolved) = scheme.repair(&map) else { continue };
            let Some(mask) = resolved.disabled else { continue };
            let cache = SetAssocCache::with_disabled_ways(resolved.geometry, &mask);
            let mut usable = 0;
            for set in 0..mask.sets() {
                let disabled = (0..mask.associativity())
                    .filter(|&way| mask.is_disabled(set, way))
                    .count() as u64;
                usable += mask.associativity() - disabled;
                prop_assert_eq!(
                    cache.usable_ways(set),
                    mask.associativity() - disabled,
                    "{}: set {}", scheme.name(), set
                );
            }
            prop_assert_eq!(mask.usable_blocks(), usable, "{}", scheme.name());
            prop_assert_eq!(mask.disabled_blocks(), geom.blocks() - usable, "{}", scheme.name());
            prop_assert_eq!(cache.usable_blocks(), usable, "{}", scheme.name());
        }
    }

    // ---------------------------------------------------------------- caches ----

    #[test]
    fn hierarchy_accounting_is_conserved(
        addrs in prop::collection::vec(0u64..1_000_000, 1..300),
        scheme_idx in 0usize..3,
    ) {
        let scheme = [
            DisablingScheme::Baseline,
            DisablingScheme::BlockDisabling,
            DisablingScheme::WordDisabling,
        ][scheme_idx];
        let mut h = CacheHierarchy::new(HierarchyConfig::ispass2010(scheme, VoltageMode::High));
        let mut l1_hits = 0u64;
        for (i, &a) in addrs.iter().enumerate() {
            let r = h.access_data(a * 4, i % 4 == 0);
            if r.level == HitLevel::L1 {
                l1_hits += 1;
            }
            prop_assert!(r.latency >= 3);
        }
        let stats = h.stats();
        prop_assert_eq!(stats.l1d.accesses, addrs.len() as u64);
        prop_assert_eq!(stats.l1d.hits + stats.l1d.misses, stats.l1d.accesses);
        prop_assert_eq!(stats.l1d.hits, l1_hits);
        // Everything that missed the L1 reached the L2; everything that missed the L2
        // reached memory.
        prop_assert_eq!(stats.l2.accesses, stats.l1d.misses);
        prop_assert_eq!(stats.memory_accesses, stats.l2.misses);
    }

    #[test]
    fn block_disabled_cache_never_uses_faulty_blocks(
        pfail in 0.001..0.05f64,
        seed in any::<u64>(),
    ) {
        let geom = CacheGeometry::ispass2010_l1();
        let map = FaultMap::generate(&geom, pfail, seed);
        let cfg = HierarchyConfig::ispass2010(DisablingScheme::BlockDisabling, VoltageMode::Low);
        let h = CacheHierarchy::with_all_fault_maps(cfg, Some(&map), Some(&map), None).unwrap();
        prop_assert_eq!(h.l1d_usable_blocks(), map.fault_free_blocks());
    }

    // -------------------------------------------------------------- pipeline ----

    #[test]
    fn pipeline_commits_every_instruction_within_physical_bounds(
        n in 200u64..2_000,
        op_idx in 0usize..4,
    ) {
        let op = [OpClass::IntAlu, OpClass::IntMul, OpClass::FpAlu, OpClass::Load][op_idx];
        let trace: Vec<TraceInstruction> = (0..n)
            .map(|i| match op {
                OpClass::Load => TraceInstruction::load(0x1000 + (i % 64) * 4, 0x10_0000 + (i % 512) * 8, 3),
                other => TraceInstruction::alu(0x1000 + (i % 64) * 4, other),
            })
            .collect();
        let mut pipeline = Pipeline::new(
            CpuConfig::ispass2010(),
            CacheHierarchy::new(HierarchyConfig::ispass2010_baseline_high_voltage()),
        )
        .unwrap();
        let result = pipeline.run(&mut trace.into_iter(), None);
        prop_assert_eq!(result.instructions, n);
        // IPC can never exceed the commit width, and a run always takes at least
        // n / commit_width cycles plus the pipeline fill.
        prop_assert!(result.ipc() <= 4.0 + 1e-9);
        prop_assert!(result.cycles as f64 >= n as f64 / 4.0);
    }
}
