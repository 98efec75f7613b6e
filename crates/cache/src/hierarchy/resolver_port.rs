//! Differential test of the one resolver against a frozen port of the code it
//! replaced.
//!
//! Three places used to turn a repair scheme into a cache organization: a
//! method of [`L1Config`] that resolved one L1 (its geometry and disable mask
//! together with its hit latency and usable victim-cache entries), a private
//! L2 resolver on [`CacheHierarchy`] (the L2's geometry and disable mask) and
//! a block-disabling constructor of the set-associative cache with its own
//! copy of the block-disabling rule. An L1 hit cost its base latency plus
//! `RepairScheme::extra_latency`; an L2 hit its base latency plus a separate
//! L2 latency method of the trait, whose default body (never overridden) was
//! `extra_latency`. The port below is the two resolvers and both latency
//! rules, with every scheme's extra cycles and the victim-cache entry rule
//! frozen as they were, so a change to either shows here and not only in the
//! goldens.
//!
//! The sweep covers every scheme × both voltages × {no victim cache, 10T, 6T}
//! × {the scheme on the L1s, the scheme on the L2}, on fault maps at pfail 0,
//! 0.001, 0.05 and 0.2 (where word-disabling fails the whole cache), a missing
//! map and a map of the other array's geometry. Every hierarchy must match the
//! port in geometry, disable mask, hit latency, usable victim entries and
//! error variant, and [`CacheHierarchy::repairable`] must agree with it. The
//! test counts each outcome and requires it to occur, so the sweep cannot
//! quietly stop covering one.

#![cfg(test)]

use vccmin_fault::{CacheGeometry, CellTechnology, FaultMap};

use super::{CacheHierarchy, HierarchyConfig, L1Side};
use crate::disabling::{DisableError, DisablingScheme, L1Config, VictimCacheConfig, VoltageMode};
use crate::repair::{ResolvedOrganization, WayDisableMask};
use crate::victim::VictimCache;

// ---------------------------------------------------------------------------
// Reference implementation: a frozen port of the per-array resolvers.
// ---------------------------------------------------------------------------

/// Every scheme's extra hit cycles, as its `RepairScheme::extra_latency`
/// returned them when the port was taken.
fn ref_extra_latency(scheme: DisablingScheme, mode: VoltageMode) -> u32 {
    match (scheme, mode) {
        (DisablingScheme::Baseline, _)
        | (DisablingScheme::BlockDisabling, _)
        | (DisablingScheme::WaySacrifice, _)
        | (DisablingScheme::BitFix, VoltageMode::High) => 0,
        (DisablingScheme::WordDisabling, _) => 1,
        (DisablingScheme::BitFix, VoltageMode::Low) => 2,
    }
}

/// Port of `VictimCacheConfig::usable_entries`: a 6T victim cache keeps half
/// its entries below Vcc-min.
fn ref_usable_entries(victim: &VictimCacheConfig, mode: VoltageMode) -> usize {
    match (mode, victim.technology) {
        (VoltageMode::High, _) | (VoltageMode::Low, CellTechnology::TenT) => victim.entries,
        (VoltageMode::Low, CellTechnology::SixT) => victim.entries / 2,
    }
}

/// Port of the resolved L1 the old L1 resolver returned, also the shape every
/// array of a built hierarchy is observed in (the L2 has no victim cache:
/// 0 entries, 0 cycles).
#[derive(Debug, Clone, PartialEq)]
struct RefOrganization {
    geometry: CacheGeometry,
    disabled: Option<WayDisableMask>,
    hit_latency: u32,
    victim_entries: usize,
    victim_latency: u32,
}

/// Port of the old L1 resolver, with `L1Config::hit_latency`.
fn ref_l1_organization(
    cfg: &L1Config,
    mode: VoltageMode,
    fault_map: Option<&FaultMap>,
) -> Result<RefOrganization, DisableError> {
    let victim_entries = cfg.victim.map_or(0, |v| ref_usable_entries(&v, mode));
    let victim_latency = cfg.victim.map_or(0, |v| v.latency);
    let base = RefOrganization {
        geometry: cfg.geometry,
        disabled: None,
        hit_latency: cfg.base_latency + ref_extra_latency(cfg.scheme, mode),
        victim_entries,
        victim_latency,
    };
    let repair = cfg.scheme.repair();
    if mode == VoltageMode::High || !repair.needs_fault_map() {
        return Ok(base);
    }
    let map = fault_map.ok_or(DisableError::MissingFaultMap)?;
    if map.geometry() != &cfg.geometry {
        return Err(DisableError::GeometryMismatch);
    }
    let resolved = repair.repair(map)?;
    Ok(RefOrganization {
        geometry: resolved.geometry,
        disabled: resolved.disabled,
        ..base
    })
}

/// Port of the old L2 resolver, with `HierarchyConfig::l2_hit_latency`.
fn ref_l2_organization(
    config: &HierarchyConfig,
    l2_faults: Option<&FaultMap>,
) -> Result<RefOrganization, DisableError> {
    let base = RefOrganization {
        geometry: config.l2_geometry,
        disabled: None,
        hit_latency: config.l2_latency + ref_extra_latency(config.l2_scheme, config.voltage),
        victim_entries: 0,
        victim_latency: 0,
    };
    let repair = config.l2_scheme.repair();
    if config.voltage == VoltageMode::High || !repair.needs_fault_map() {
        return Ok(base);
    }
    let map = l2_faults.ok_or(DisableError::MissingFaultMap)?;
    if map.geometry() != &config.l2_geometry {
        return Err(DisableError::GeometryMismatch);
    }
    let resolved = repair.repair(map)?;
    Ok(RefOrganization {
        geometry: resolved.geometry,
        disabled: resolved.disabled,
        ..base
    })
}

/// Port of the construction order: L1I, then L1D, then L2, the first error
/// winning.
fn ref_build(
    config: &HierarchyConfig,
    l1i: Option<&FaultMap>,
    l1d: Option<&FaultMap>,
    l2: Option<&FaultMap>,
) -> Result<[RefOrganization; 3], DisableError> {
    Ok([
        ref_l1_organization(&config.l1, config.voltage, l1i)?,
        ref_l1_organization(&config.l1, config.voltage, l1d)?,
        ref_l2_organization(config, l2)?,
    ])
}

// ---------------------------------------------------------------------------
// The code under test, observed in the port's shape.
// ---------------------------------------------------------------------------

/// One array of a built hierarchy: the resolver's organization, checked to
/// be the one its tag store was built with, plus the latencies and victim
/// entries the hierarchy charges.
fn observe(
    org: ResolvedOrganization,
    cache: &crate::set_assoc::SetAssocCache,
    hit_latency: u32,
    victim: Option<&VictimCache>,
    victim_latency: u32,
) -> RefOrganization {
    assert_eq!(cache.geometry(), &org.geometry, "tag store geometry");
    for set in 0..org.geometry.sets() {
        let disabled = org.disabled.as_ref().map_or(0, |mask| {
            (0..org.geometry.associativity())
                .filter(|&way| mask.is_disabled(set, way))
                .count() as u64
        });
        assert_eq!(
            cache.usable_ways(set),
            org.geometry.associativity() - disabled,
            "tag store of set {set} holds the resolved mask"
        );
    }
    RefOrganization {
        geometry: org.geometry,
        disabled: org.disabled,
        hit_latency,
        victim_entries: victim.map_or(0, VictimCache::entries),
        victim_latency,
    }
}

fn observe_l1(org: ResolvedOrganization, side: &L1Side) -> RefOrganization {
    observe(
        org,
        &side.cache,
        side.hit_latency,
        side.victim.as_ref(),
        side.victim_latency,
    )
}

/// Builds the hierarchy and reads back every array, or the error it failed
/// with; `repairable` must give the same verdict.
fn build(
    config: HierarchyConfig,
    l1i: Option<&FaultMap>,
    l1d: Option<&FaultMap>,
    l2: Option<&FaultMap>,
) -> Result<[RefOrganization; 3], DisableError> {
    let built = CacheHierarchy::with_all_fault_maps(config, l1i, l1d, l2);
    assert_eq!(
        CacheHierarchy::repairable(config, l1i, l1d, l2),
        built.is_ok(),
        "repairable agrees with construction"
    );
    let h = built?;
    let [oi, od, o2] = CacheHierarchy::organizations(&config, l1i, l1d, l2)
        .expect("the organizations of a built hierarchy resolve");
    assert_eq!(h.l1_hit_latency(), h.l1d.hit_latency);
    Ok([
        observe_l1(oi, &h.l1i),
        observe_l1(od, &h.l1d),
        observe(o2, &h.l2, h.l2_hit_latency(), None, 0),
    ])
}

// ---------------------------------------------------------------------------
// The sweep.
// ---------------------------------------------------------------------------

/// How often each outcome occurred.
#[derive(Debug, Default)]
struct Outcomes {
    built: usize,
    missing: usize,
    mismatched: usize,
    whole_cache_failure: usize,
    /// Built hierarchies whose L1s or L2 disable at least one way.
    masked: usize,
}

impl Outcomes {
    fn record(&mut self, outcome: &Result<[RefOrganization; 3], DisableError>) {
        match outcome {
            Ok(arrays) => {
                self.built += 1;
                if arrays.iter().any(|a| {
                    a.disabled
                        .as_ref()
                        .is_some_and(|mask| mask.disabled_blocks() > 0)
                }) {
                    self.masked += 1;
                }
            }
            Err(DisableError::MissingFaultMap) => self.missing += 1,
            Err(DisableError::GeometryMismatch) => self.mismatched += 1,
            Err(DisableError::WholeCacheFailure) => self.whole_cache_failure += 1,
        }
    }
}

/// The map variants of one array: pfail 0, 0.001, 0.05 and 0.2, a missing
/// map and a map of `other`'s geometry. The instruction and data side get
/// maps of different seeds.
fn map_variants(
    geometry: &CacheGeometry,
    other: &CacheGeometry,
    seed: u64,
) -> Vec<Option<FaultMap>> {
    let mut maps: Vec<Option<FaultMap>> = [0.0, 0.001, 0.05, 0.2]
        .iter()
        .map(|&pfail| Some(FaultMap::generate(geometry, pfail, seed)))
        .collect();
    maps.push(None);
    maps.push(Some(FaultMap::generate(other, 0.001, seed)));
    maps
}

#[test]
fn every_scheme_voltage_victim_and_array_matches_the_frozen_resolvers() {
    let l1 = CacheGeometry::ispass2010_l1();
    let l2 = CacheGeometry::ispass2010_l2();
    let l1i_maps = map_variants(&l1, &l2, 3);
    let l1d_maps = map_variants(&l1, &l2, 4);
    let l2_maps = map_variants(&l2, &l1, 5);
    let victims = [
        None,
        Some(VictimCacheConfig::ispass2010_10t()),
        Some(VictimCacheConfig::ispass2010_6t()),
    ];
    let mut outcomes = Outcomes::default();
    for scheme in DisablingScheme::ALL {
        for voltage in [VoltageMode::High, VoltageMode::Low] {
            for victim in victims {
                let with_victim = |config: HierarchyConfig| match victim {
                    Some(v) => config.with_victim_caches(v),
                    None => config,
                };
                // The scheme on both L1s behind a perfect L2.
                let on_l1 = with_victim(HierarchyConfig::ispass2010(scheme, voltage));
                for (i, d) in l1i_maps.iter().zip(&l1d_maps) {
                    let (i, d) = (i.as_ref(), d.as_ref());
                    let expected = ref_build(&on_l1, i, d, None);
                    let got = build(on_l1, i, d, None);
                    assert_eq!(
                        got, expected,
                        "{scheme:?} on the L1s at {voltage:?}, {victim:?}"
                    );
                    outcomes.record(&got);
                }
                // The scheme on the L2 behind fault-free L1s.
                let on_l2 = with_victim(
                    HierarchyConfig::ispass2010(DisablingScheme::Baseline, voltage)
                        .with_l2_scheme(scheme),
                );
                for m2 in &l2_maps {
                    let expected = ref_build(&on_l2, None, None, m2.as_ref());
                    let got = build(on_l2, None, None, m2.as_ref());
                    assert_eq!(
                        got, expected,
                        "{scheme:?} on the L2 at {voltage:?}, {victim:?}"
                    );
                    outcomes.record(&got);
                }
            }
        }
    }
    assert!(
        outcomes.built > 0
            && outcomes.missing > 0
            && outcomes.mismatched > 0
            && outcomes.whole_cache_failure > 0
            && outcomes.masked > 0,
        "every outcome occurs: {outcomes:?}"
    );
}

#[test]
fn victim_caches_keep_their_paper_entries_at_each_voltage() {
    // A 6T victim cache behind a block-disabled L1 keeps 8 of its 16
    // entries below Vcc-min, and a 10T one all 16; both add one cycle.
    let map = FaultMap::generate(&CacheGeometry::ispass2010_l1(), 0.001, 1);
    for (victim, high, low) in [
        (VictimCacheConfig::ispass2010_10t(), 16, 16),
        (VictimCacheConfig::ispass2010_6t(), 16, 8),
    ] {
        for (voltage, entries) in [(VoltageMode::High, high), (VoltageMode::Low, low)] {
            let config = HierarchyConfig::ispass2010(DisablingScheme::BlockDisabling, voltage)
                .with_victim_caches(victim);
            let [l1i, l1d, _] = build(config, Some(&map), Some(&map), None).unwrap();
            for side in [l1i, l1d] {
                assert_eq!((side.victim_entries, side.victim_latency), (entries, 1));
            }
        }
    }
}
