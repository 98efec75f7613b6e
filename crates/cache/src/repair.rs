//! The [`RepairScheme`] trait: one interface for every cache fault-repair
//! organization, plus the five schemes the repo ships.
//!
//! A repair scheme answers three questions:
//!
//! 1. **Structure** — given a fault map, what organization does the cache
//!    present at low voltage ([`RepairScheme::repair`]): a possibly transformed
//!    geometry plus a per-(set, way) disable mask?
//! 2. **Latency** — how many extra cycles does the repair hardware add to a
//!    hit at each voltage ([`RepairScheme::extra_latency`]), on the L1s and
//!    the L2 alike?
//! 3. **Capacity** — how much of the cache survives, both for a concrete fault
//!    map ([`RepairScheme::effective_capacity`]) and in expectation from the
//!    closed-form models of `vccmin-analysis`
//!    ([`RepairScheme::expected_capacity`])?
//!
//! Everything downstream — [`crate::hierarchy::CacheHierarchy`], the campaign
//! executor in `vccmin-experiments` and the `vccmin-repro` CLI — dispatches
//! through this trait via the scheme [`registry`], which is
//! [`DisablingScheme::ALL`](crate::disabling::DisablingScheme::ALL) resolved
//! to implementations. Adding a scheme is therefore one trait impl plus one
//! [`DisablingScheme`] variant, listed in `ALL` and mapped to the impl by
//! [`DisablingScheme::repair`](crate::disabling::DisablingScheme::repair);
//! the compiler then names every exhaustive match downstream that must learn
//! the new variant.

use vccmin_analysis::bit_fix::BitFixParams;
use vccmin_analysis::{bit_fix, block_faults, way_sacrifice, word_disable};
use vccmin_fault::{BlockFaults, CacheGeometry, FaultMap};

use crate::disabling::{DisableError, DisablingScheme, VoltageMode};

/// A per-(set, way) disable decision computed by a repair scheme.
///
/// This generalizes the "disable every faulty block" rule of block-disabling:
/// bit-fix and way-sacrifice disable ways that are not themselves faulty (the
/// sacrificed pattern-storage way) and keep ways that are (repaired blocks).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WayDisableMask {
    sets: u64,
    associativity: u64,
    disabled: Vec<bool>,
}

impl WayDisableMask {
    /// A mask with every way enabled.
    #[must_use]
    pub fn all_enabled(geometry: &CacheGeometry) -> Self {
        Self {
            sets: geometry.sets(),
            associativity: geometry.associativity(),
            disabled: vec![false; (geometry.sets() * geometry.associativity()) as usize],
        }
    }

    /// Builds a mask by asking `disable(set, way)` for every way.
    #[must_use]
    pub fn from_fn(geometry: &CacheGeometry, mut disable: impl FnMut(u64, u64) -> bool) -> Self {
        let mut mask = Self::all_enabled(geometry);
        for set in 0..mask.sets {
            for way in 0..mask.associativity {
                if disable(set, way) {
                    mask.disable(set, way);
                }
            }
        }
        mask
    }

    /// Builds the mask of `map`'s geometry one set at a time: `disable` sees
    /// the set's block fault records (from [`FaultMap::sets`]) and the set's
    /// disable flags, both in way order.
    fn from_sets(map: &FaultMap, mut disable: impl FnMut(&[BlockFaults], &mut [bool])) -> Self {
        let mut mask = Self::all_enabled(map.geometry());
        let ways = mask.associativity as usize;
        for (blocks, disabled) in map.sets().zip(mask.disabled.chunks_exact_mut(ways)) {
            disable(blocks, disabled);
        }
        mask
    }

    fn index(&self, set: u64, way: u64) -> usize {
        assert!(set < self.sets, "set {set} out of range");
        assert!(way < self.associativity, "way {way} out of range");
        (set * self.associativity + way) as usize
    }

    /// Marks a way as disabled.
    pub fn disable(&mut self, set: u64, way: u64) {
        let i = self.index(set, way);
        self.disabled[i] = true;
    }

    /// Whether the given way is disabled.
    ///
    /// # Panics
    ///
    /// Panics if `set` or `way` are out of range.
    #[must_use]
    pub fn is_disabled(&self, set: u64, way: u64) -> bool {
        self.disabled[self.index(set, way)]
    }

    /// Number of sets covered by the mask.
    #[must_use]
    pub fn sets(&self) -> u64 {
        self.sets
    }

    /// Number of ways per set covered by the mask.
    #[must_use]
    pub fn associativity(&self) -> u64 {
        self.associativity
    }

    /// Number of disabled ways across the whole cache.
    #[must_use]
    pub fn disabled_blocks(&self) -> u64 {
        self.disabled.iter().filter(|&&d| d).count() as u64
    }

    /// Number of usable ways across the whole cache.
    #[must_use]
    pub fn usable_blocks(&self) -> u64 {
        self.disabled.len() as u64 - self.disabled_blocks()
    }
}

/// The organization a cache array presents to the access stream: a geometry
/// (possibly transformed, e.g. halved for low-voltage word-disabling) and an
/// optional disable mask over that geometry's ways. A scheme's
/// [`RepairScheme::repair`] gives it below Vcc-min; above Vcc-min, or under
/// a scheme that needs no fault map, it is the whole array.
#[derive(Debug, Clone, PartialEq)]
pub struct ResolvedOrganization {
    /// Geometry presented to the access stream.
    pub geometry: CacheGeometry,
    /// Ways that must not be used, if the scheme disables at way granularity.
    pub disabled: Option<WayDisableMask>,
}

impl ResolvedOrganization {
    /// Number of usable blocks in this organization.
    #[must_use]
    pub fn usable_blocks(&self) -> u64 {
        match &self.disabled {
            Some(mask) => mask.usable_blocks(),
            None => self.geometry.blocks(),
        }
    }
}

/// A cache fault-repair organization (Table III row family).
///
/// Implementations are stateless unit structs; the per-instance state (fault
/// map, geometry) flows through the method arguments so a single `&'static`
/// registry entry serves every cache.
pub trait RepairScheme: std::fmt::Debug + Send + Sync {
    /// Stable machine-readable name, used by `vccmin-repro --scheme`.
    fn name(&self) -> &'static str;

    /// Human-readable label, matching the paper's figure legends.
    fn label(&self) -> &'static str;

    /// Extra hit latency (cycles) imposed by the repair hardware in the given
    /// voltage mode. The repair datapath (disable lookup, alignment network,
    /// fix/realign pipeline) has the same depth regardless of the array
    /// behind it, so this one figure prices the L1s and the L2 alike.
    fn extra_latency(&self, mode: VoltageMode) -> u32;

    /// Whether the scheme needs a fault map to operate at low voltage.
    fn needs_fault_map(&self) -> bool {
        true
    }

    /// Whether low-voltage performance is identical across every fault map the
    /// scheme can repair (true for word-disabling, whose surviving organization
    /// is always the same halved cache). Campaign executors use this to stop
    /// after the first usable map.
    fn performance_uniform_across_maps(&self) -> bool {
        false
    }

    /// Cycles needed to reconfigure the cache when the core crosses Vcc-min in
    /// either direction: the repair hardware walks every set to swap its
    /// disable/remap metadata in or out, and each step is stretched by the
    /// scheme's repair-pipeline depth (its worst-case extra hit latency). A
    /// scheme that keeps no per-set repair state (the idealized baseline)
    /// reconfigures for free. Voltage-mode governors charge this, plus a
    /// pipeline drain, per transition.
    fn reconfiguration_cycles(&self, geometry: &CacheGeometry) -> u64 {
        if !self.needs_fault_map() {
            return 0;
        }
        let pipeline_depth = self
            .extra_latency(VoltageMode::Low)
            .max(self.extra_latency(VoltageMode::High));
        geometry.sets() * (1 + u64::from(pipeline_depth))
    }

    /// Resolves the low-voltage organization for `map`.
    ///
    /// # Errors
    ///
    /// Returns [`DisableError::WholeCacheFailure`] if the scheme cannot repair
    /// this fault map at all, or [`DisableError::GeometryMismatch`] if the
    /// geometry cannot be transformed as the scheme requires.
    fn repair(&self, map: &FaultMap) -> Result<ResolvedOrganization, DisableError>;

    /// Fraction of the fault-free capacity usable at low voltage under `map`.
    ///
    /// # Errors
    ///
    /// Propagates the errors of [`RepairScheme::repair`].
    fn effective_capacity(&self, map: &FaultMap) -> Result<f64, DisableError> {
        let resolved = self.repair(map)?;
        Ok(resolved.usable_blocks() as f64 / map.geometry().blocks() as f64)
    }

    /// Closed-form expected capacity at low voltage (the analytical models of
    /// `vccmin-analysis`), as a fraction of the fault-free cache.
    fn expected_capacity(&self, geometry: &CacheGeometry, pfail: f64) -> f64;

    /// Whether this scheme keeps a concrete die operational under `map`: the
    /// map is repairable at all *and* the surviving capacity is at least
    /// `min_capacity_fraction` of the fault-free cache. This is the per-die
    /// pass criterion of the yield studies; because adding faults never
    /// increases any scheme's capacity, the answer is monotone in the fault
    /// map (a die operational under a fault superset is operational under
    /// every subset).
    fn meets_capacity_floor(&self, map: &FaultMap, min_capacity_fraction: f64) -> bool {
        self.effective_capacity(map)
            .is_ok_and(|c| c >= min_capacity_fraction)
    }
}

/// No repair at all: an idealized cache that is assumed fault free at any
/// voltage (the paper's normalization reference).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BaselineScheme;

impl RepairScheme for BaselineScheme {
    fn name(&self) -> &'static str {
        "baseline"
    }

    fn label(&self) -> &'static str {
        "baseline"
    }

    fn extra_latency(&self, _mode: VoltageMode) -> u32 {
        0
    }

    fn needs_fault_map(&self) -> bool {
        false
    }

    fn performance_uniform_across_maps(&self) -> bool {
        true
    }

    fn repair(&self, map: &FaultMap) -> Result<ResolvedOrganization, DisableError> {
        Ok(ResolvedOrganization {
            geometry: *map.geometry(),
            disabled: None,
        })
    }

    fn expected_capacity(&self, _geometry: &CacheGeometry, _pfail: f64) -> f64 {
        1.0
    }
}

/// Block-disabling (this paper): any block with a fault in its data, tag or
/// metadata is disabled at low voltage; no latency overhead at any voltage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockDisablingScheme;

impl RepairScheme for BlockDisablingScheme {
    fn name(&self) -> &'static str {
        "block-disable"
    }

    fn label(&self) -> &'static str {
        "block disabling"
    }

    fn extra_latency(&self, _mode: VoltageMode) -> u32 {
        0
    }

    fn repair(&self, map: &FaultMap) -> Result<ResolvedOrganization, DisableError> {
        Ok(ResolvedOrganization {
            geometry: *map.geometry(),
            disabled: Some(WayDisableMask::from_sets(map, |blocks, disabled| {
                for (d, block) in disabled.iter_mut().zip(blocks) {
                    *d = block.has_any_fault();
                }
            })),
        })
    }

    fn expected_capacity(&self, geometry: &CacheGeometry, pfail: f64) -> f64 {
        block_faults::mean_capacity(&geometry.to_array_geometry(), pfail)
    }
}

/// Word-disabling (Wilkerson et al.): pairs of blocks merge into one logical
/// block at low voltage (half capacity, half associativity) and the alignment
/// network adds one cycle of latency at *both* voltages.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WordDisablingScheme;

impl WordDisablingScheme {
    /// Words per word-disable subblock (8 in the paper).
    pub const SUBBLOCK_WORDS: u8 = 8;
}

impl RepairScheme for WordDisablingScheme {
    fn name(&self) -> &'static str {
        "word-disable"
    }

    fn label(&self) -> &'static str {
        "word disabling"
    }

    fn extra_latency(&self, _mode: VoltageMode) -> u32 {
        1
    }

    fn performance_uniform_across_maps(&self) -> bool {
        true
    }

    fn repair(&self, map: &FaultMap) -> Result<ResolvedOrganization, DisableError> {
        if !map.word_disable_usable(Self::SUBBLOCK_WORDS) {
            return Err(DisableError::WholeCacheFailure);
        }
        let halved = map
            .geometry()
            .halved()
            .map_err(|_| DisableError::GeometryMismatch)?;
        Ok(ResolvedOrganization {
            geometry: halved,
            disabled: None,
        })
    }

    fn expected_capacity(&self, geometry: &CacheGeometry, pfail: f64) -> f64 {
        // A usable word-disabled cache always keeps exactly half its capacity;
        // an unrepairable one (whole-cache failure) contributes zero.
        word_disable::expected_capacity(
            &geometry.to_array_geometry(),
            &word_disable::WordDisableParams::ispass2010(),
            pfail,
        )
    }
}

/// Bit-fix (after Wilkerson et al., ISCA 2008), set-adaptive variant: in every
/// set that contains a fault, one way is sacrificed to store repair patterns
/// and the remaining blocks are usable as long as their tags are clean and
/// they have at most `words_per_block / 4` faulty words. The fix/realign
/// pipeline adds two cycles to L1 hits at low voltage and is bypassed at high
/// voltage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BitFixScheme;

impl BitFixScheme {
    fn params(geometry: &CacheGeometry) -> BitFixParams {
        BitFixParams::for_block(geometry.word_bytes() * 8, geometry.words_per_block())
    }

    /// Whether a block cannot be repaired from the set's pattern storage: its
    /// tag cells are faulty, or it exceeds the per-block repair budget.
    fn unrepairable(block: &BlockFaults, budget: u64) -> bool {
        block.tag_is_faulty() || u64::from(block.faulty_word_count()) > budget
    }

    /// The way sacrificed for pattern storage in a faulty set: an unrepairable
    /// block if one exists, otherwise the block with the most faulty words
    /// (ties broken toward the lowest way index). The chosen way is always
    /// faulty, which is what makes bit-fix dominate block-disabling on every
    /// fault map.
    fn sacrificed_way(blocks: &[BlockFaults], budget: u64) -> usize {
        let mut best_way = 0;
        let mut best_score = (false, 0u32);
        for (way, block) in blocks.iter().enumerate() {
            let score = (
                Self::unrepairable(block, budget),
                block.faulty_word_count() + u32::from(block.tag_is_faulty()),
            );
            if score > best_score {
                best_score = score;
                best_way = way;
            }
        }
        best_way
    }
}

impl RepairScheme for BitFixScheme {
    fn name(&self) -> &'static str {
        "bit-fix"
    }

    fn label(&self) -> &'static str {
        "bit fix"
    }

    fn extra_latency(&self, mode: VoltageMode) -> u32 {
        match mode {
            VoltageMode::High => 0,
            VoltageMode::Low => 2,
        }
    }

    fn repair(&self, map: &FaultMap) -> Result<ResolvedOrganization, DisableError> {
        let geometry = *map.geometry();
        let budget = Self::params(&geometry).repair_word_budget;
        let mask = WayDisableMask::from_sets(map, |blocks, disabled| {
            if !blocks.iter().any(BlockFaults::has_any_fault) {
                return;
            }
            let sacrificed = Self::sacrificed_way(blocks, budget);
            for (way, (d, block)) in disabled.iter_mut().zip(blocks).enumerate() {
                *d = way == sacrificed || Self::unrepairable(block, budget);
            }
        });
        Ok(ResolvedOrganization {
            geometry,
            disabled: Some(mask),
        })
    }

    fn expected_capacity(&self, geometry: &CacheGeometry, pfail: f64) -> f64 {
        bit_fix::expected_capacity(
            &geometry.to_array_geometry(),
            geometry.associativity(),
            &Self::params(geometry),
            pfail,
        )
    }
}

/// Way-sacrifice / set-remap: at low voltage every set unconditionally disables
/// its worst (faultiest) way and remaps that way's blocks into the surviving
/// ways; blocks that are still faulty are disabled like under block-disabling.
/// The only repair metadata is one way pointer per set, and there is no latency
/// overhead.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WaySacrificeScheme;

impl WaySacrificeScheme {
    /// The worst way of a set: most faulty cells (words + tag), ties broken
    /// toward the lowest index. Faulty blocks always outrank clean ones, so in
    /// a faulty set the sacrifice costs nothing over block-disabling.
    fn worst_way(blocks: &[BlockFaults]) -> usize {
        let mut worst = 0;
        let mut worst_score = 0u32;
        for (way, block) in blocks.iter().enumerate() {
            let score = block.faulty_word_count() + u32::from(block.tag_is_faulty());
            if score > worst_score {
                worst_score = score;
                worst = way;
            }
        }
        worst
    }
}

impl RepairScheme for WaySacrificeScheme {
    fn name(&self) -> &'static str {
        "way-sacrifice"
    }

    fn label(&self) -> &'static str {
        "way sacrifice"
    }

    fn extra_latency(&self, _mode: VoltageMode) -> u32 {
        0
    }

    fn repair(&self, map: &FaultMap) -> Result<ResolvedOrganization, DisableError> {
        let geometry = *map.geometry();
        let mask = WayDisableMask::from_sets(map, |blocks, disabled| {
            let worst = Self::worst_way(blocks);
            for (way, (d, block)) in disabled.iter_mut().zip(blocks).enumerate() {
                *d = way == worst || block.has_any_fault();
            }
        });
        Ok(ResolvedOrganization {
            geometry,
            disabled: Some(mask),
        })
    }

    fn expected_capacity(&self, geometry: &CacheGeometry, pfail: f64) -> f64 {
        way_sacrifice::expected_capacity(
            &geometry.to_array_geometry(),
            geometry.associativity(),
            pfail,
        )
    }
}

/// Every repair scheme the repo ships, in the order the paper (and the CLI)
/// presents them: [`DisablingScheme::ALL`], resolved to implementations.
#[must_use]
pub fn registry() -> [&'static dyn RepairScheme; DisablingScheme::ALL.len()] {
    DisablingScheme::ALL.map(DisablingScheme::repair)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn l1() -> CacheGeometry {
        CacheGeometry::ispass2010_l1()
    }

    fn capacity_or_zero(scheme: &dyn RepairScheme, map: &FaultMap) -> f64 {
        scheme.effective_capacity(map).unwrap_or(0.0)
    }

    #[test]
    fn registry_names_are_unique_and_resolvable() {
        let names: std::collections::HashSet<_> = registry().iter().map(|s| s.name()).collect();
        assert_eq!(names.len(), registry().len());
        for (id, scheme) in DisablingScheme::ALL.into_iter().zip(registry()) {
            assert_eq!(DisablingScheme::from_name(scheme.name()), Some(id));
            assert_eq!(id.name(), scheme.name());
        }
        assert_eq!(
            registry().map(RepairScheme::label),
            [
                "baseline",
                "block disabling",
                "word disabling",
                "bit fix",
                "way sacrifice"
            ]
        );
        assert!(DisablingScheme::from_name("no-such-scheme").is_none());
    }

    #[test]
    fn baseline_ignores_faults_entirely() {
        let map = FaultMap::generate(&l1(), 0.01, 3);
        let resolved = BaselineScheme.repair(&map).unwrap();
        assert_eq!(resolved.usable_blocks(), l1().blocks());
        assert_eq!(BaselineScheme.effective_capacity(&map).unwrap(), 1.0);
        assert!(!BaselineScheme.needs_fault_map());
    }

    #[test]
    fn block_disabling_mask_matches_the_fault_map() {
        let map = FaultMap::generate(&l1(), 0.002, 7);
        let resolved = BlockDisablingScheme.repair(&map).unwrap();
        let mask = resolved.disabled.as_ref().unwrap();
        assert_eq!(mask.usable_blocks(), map.fault_free_blocks());
        for set in 0..l1().sets() {
            for way in 0..l1().associativity() {
                assert_eq!(mask.is_disabled(set, way), map.block_is_faulty(set, way));
            }
        }
    }

    #[test]
    fn word_disabling_halves_or_fails() {
        let usable = FaultMap::generate(&l1(), 0.001, 11);
        let resolved = WordDisablingScheme.repair(&usable).unwrap();
        assert_eq!(resolved.geometry.blocks(), l1().blocks() / 2);
        assert_eq!(WordDisablingScheme.effective_capacity(&usable).unwrap(), 0.5);

        let hopeless = FaultMap::generate(&l1(), 0.2, 3);
        assert_eq!(
            WordDisablingScheme.repair(&hopeless).unwrap_err(),
            DisableError::WholeCacheFailure
        );
    }

    #[test]
    fn bit_fix_keeps_clean_sets_whole_and_dominates_block_disabling() {
        for seed in 0..20 {
            for &pfail in &[0.001, 0.005, 0.02] {
                let map = FaultMap::generate(&l1(), pfail, seed);
                let bitfix = capacity_or_zero(&BitFixScheme, &map);
                let block = capacity_or_zero(&BlockDisablingScheme, &map);
                assert!(
                    bitfix >= block,
                    "seed {seed} pfail {pfail}: bit-fix {bitfix} < block-disable {block}"
                );
            }
        }
        // A fault-free cache gives nothing up (the sacrifice is lazy).
        let clean = FaultMap::fault_free(&l1());
        assert_eq!(BitFixScheme.effective_capacity(&clean).unwrap(), 1.0);
    }

    #[test]
    fn bit_fix_sacrifices_a_faulty_way_in_every_dirty_set() {
        let map = FaultMap::generate(&l1(), 0.003, 42);
        let resolved = BitFixScheme.repair(&map).unwrap();
        let mask = resolved.disabled.unwrap();
        for set in 0..l1().sets() {
            let dirty = (0..l1().associativity()).any(|w| map.block_is_faulty(set, w));
            let disabled: Vec<u64> = (0..l1().associativity())
                .filter(|&w| mask.is_disabled(set, w))
                .collect();
            if dirty {
                assert!(!disabled.is_empty(), "dirty set {set} sacrificed nothing");
                // Every disabled way is faulty: clean blocks are never given up.
                for &w in &disabled {
                    assert!(map.block_is_faulty(set, w));
                }
            } else {
                assert!(disabled.is_empty(), "clean set {set} lost a way");
            }
        }
    }

    #[test]
    fn way_sacrifice_loses_one_way_per_clean_set_and_matches_block_disabling_elsewhere() {
        let clean = FaultMap::fault_free(&l1());
        let cap = WaySacrificeScheme.effective_capacity(&clean).unwrap();
        assert!((cap - 7.0 / 8.0).abs() < 1e-12);

        for seed in 0..20 {
            let map = FaultMap::generate(&l1(), 0.002, seed);
            let ws = capacity_or_zero(&WaySacrificeScheme, &map);
            let block = capacity_or_zero(&BlockDisablingScheme, &map);
            assert!(ws <= block, "seed {seed}: way-sacrifice {ws} > block {block}");
            // The deficit is exactly one way per fully-clean set.
            let clean_sets = (0..l1().sets())
                .filter(|&s| (0..l1().associativity()).all(|w| !map.block_is_faulty(s, w)))
                .count() as f64;
            let expected_deficit = clean_sets / l1().blocks() as f64;
            assert!((block - ws - expected_deficit).abs() < 1e-12);
        }
    }

    #[test]
    fn latencies_match_the_table_iii_story() {
        assert_eq!(BaselineScheme.extra_latency(VoltageMode::Low), 0);
        assert_eq!(BlockDisablingScheme.extra_latency(VoltageMode::Low), 0);
        assert_eq!(WordDisablingScheme.extra_latency(VoltageMode::High), 1);
        assert_eq!(WordDisablingScheme.extra_latency(VoltageMode::Low), 1);
        assert_eq!(BitFixScheme.extra_latency(VoltageMode::High), 0);
        assert_eq!(BitFixScheme.extra_latency(VoltageMode::Low), 2);
        assert_eq!(WaySacrificeScheme.extra_latency(VoltageMode::Low), 0);
    }

    #[test]
    fn expected_capacity_models_are_sane_at_the_paper_pfail() {
        let geom = l1();
        let pfail = 0.001;
        let baseline = BaselineScheme.expected_capacity(&geom, pfail);
        let block = BlockDisablingScheme.expected_capacity(&geom, pfail);
        let word = WordDisablingScheme.expected_capacity(&geom, pfail);
        let bitfix = BitFixScheme.expected_capacity(&geom, pfail);
        let ws = WaySacrificeScheme.expected_capacity(&geom, pfail);
        assert_eq!(baseline, 1.0);
        assert!((0.55..0.62).contains(&block));
        assert!((0.49..=0.5).contains(&word));
        assert!(bitfix > block);
        assert!(ws <= block && ws > word);
    }

    #[test]
    fn every_scheme_resolves_an_effective_l2_organization() {
        // The repair machinery is array-agnostic: the same registry entries
        // that repair the 32 KB L1 resolve the 2 MB unified L2.
        let l2 = CacheGeometry::ispass2010_l2();
        let map = FaultMap::generate(&l2, 0.001, 17);
        for scheme in registry() {
            let resolved = scheme
                .repair(&map)
                .unwrap_or_else(|e| panic!("{} cannot repair the L2: {e}", scheme.name()));
            assert!(resolved.usable_blocks() > 0, "{} kept nothing", scheme.name());
            let cap = scheme.effective_capacity(&map).unwrap();
            assert!((0.0..=1.0).contains(&cap));
            // The closed-form expectation applies to the L2 geometry too.
            let expected = scheme.expected_capacity(&l2, 0.001);
            assert!((0.0..=1.0).contains(&expected), "{}: {expected}", scheme.name());
        }
        // Word-disabling halves the L2 exactly like the L1.
        let halved = WordDisablingScheme.repair(&map).unwrap();
        assert_eq!(halved.geometry.size_bytes(), 1024 * 1024);
        assert_eq!(halved.geometry.associativity(), 4);
    }

    #[test]
    fn l2_latency_penalties_default_to_the_l1_repair_pipeline_depth() {
        use crate::hierarchy::HierarchyConfig;
        let l2_hit = |scheme, mode| {
            HierarchyConfig::ispass2010(DisablingScheme::Baseline, mode)
                .with_l2_scheme(scheme)
                .l2_hit_latency()
                - HierarchyConfig::L2_LATENCY
        };
        for scheme in DisablingScheme::ALL {
            for mode in [VoltageMode::High, VoltageMode::Low] {
                assert_eq!(l2_hit(scheme, mode), scheme.extra_latency(mode));
            }
        }
        assert_eq!(l2_hit(DisablingScheme::BitFix, VoltageMode::Low), 2);
        assert_eq!(l2_hit(DisablingScheme::WordDisabling, VoltageMode::High), 1);
        assert_eq!(l2_hit(DisablingScheme::BlockDisabling, VoltageMode::Low), 0);
    }

    #[test]
    fn reconfiguration_cost_tracks_repair_state_and_pipeline_depth() {
        let geom = l1();
        // The idealized baseline keeps no repair state: free transitions.
        assert_eq!(BaselineScheme.reconfiguration_cycles(&geom), 0);
        // One step per set, stretched by the repair-pipeline depth.
        assert_eq!(BlockDisablingScheme.reconfiguration_cycles(&geom), 64);
        assert_eq!(WordDisablingScheme.reconfiguration_cycles(&geom), 128);
        assert_eq!(BitFixScheme.reconfiguration_cycles(&geom), 192);
        assert_eq!(WaySacrificeScheme.reconfiguration_cycles(&geom), 64);
        // Deeper repair pipelines and more sets can only cost more.
        let l2 = CacheGeometry::ispass2010_l2();
        for scheme in registry() {
            assert!(scheme.reconfiguration_cycles(&l2) >= scheme.reconfiguration_cycles(&geom));
        }
    }

    #[test]
    fn capacity_floor_criterion_matches_effective_capacity() {
        let clean = FaultMap::fault_free(&l1());
        let dirty = FaultMap::generate(&l1(), 0.003, 21);
        let hopeless = FaultMap::generate(&l1(), 0.2, 3);
        for scheme in registry() {
            // A zero floor only requires repairability.
            assert_eq!(
                scheme.meets_capacity_floor(&dirty, 0.0),
                scheme.effective_capacity(&dirty).is_ok()
            );
            // The floor is compared against the actual surviving fraction.
            if let Ok(cap) = scheme.effective_capacity(&dirty) {
                assert!(scheme.meets_capacity_floor(&dirty, cap));
                assert!(!scheme.meets_capacity_floor(&dirty, cap + 1e-9));
            }
        }
        // Word-disabling's halved cache sits exactly on a 0.5 floor when usable
        // and fails every floor when the map is a whole-cache failure.
        assert!(WordDisablingScheme.meets_capacity_floor(&clean, 0.5));
        assert!(!WordDisablingScheme.meets_capacity_floor(&hopeless, 0.0));
        // The idealized baseline always passes.
        assert!(BaselineScheme.meets_capacity_floor(&hopeless, 1.0));
    }

    #[test]
    fn mask_accessors_and_bounds() {
        let mut mask = WayDisableMask::all_enabled(&l1());
        assert_eq!(mask.sets(), 64);
        assert_eq!(mask.associativity(), 8);
        assert_eq!(mask.usable_blocks(), 512);
        mask.disable(0, 0);
        mask.disable(0, 0);
        assert!(mask.is_disabled(0, 0));
        assert!(!mask.is_disabled(0, 1));
        assert_eq!(mask.disabled_blocks(), 1);
        assert_eq!(mask.usable_blocks(), 511);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn mask_rejects_out_of_range_ways() {
        let mask = WayDisableMask::all_enabled(&l1());
        let _ = mask.is_disabled(0, 8);
    }
}
