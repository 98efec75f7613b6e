//! Cache organizations for operation below Vcc-min, at high and low voltage
//! (Table III of the paper, extended with the bit-fix and way-sacrifice repair
//! schemes).
//!
//! [`DisablingScheme`] is the *identifier* of a repair scheme — a small `Copy`
//! enum that configurations can embed and serialize, and whose
//! [`DisablingScheme::ALL`] is the one list of schemes. All scheme behavior
//! (structure, latency, capacity) lives behind the
//! [`RepairScheme`](crate::repair::RepairScheme) trait;
//! [`DisablingScheme::repair`] resolves an identifier to its `&'static`
//! implementation.
//!
//! One crate-private resolver turns a scheme, an array geometry, a voltage
//! and a fault map into the organization the array presents, for the L1I,
//! the L1D and the L2 alike; every array's hit latency is its base latency
//! plus [`DisablingScheme::extra_latency`].

use vccmin_fault::{CacheGeometry, CellTechnology, FaultMap};

use crate::repair::{RepairScheme, ResolvedOrganization};

/// Supply-voltage operating mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum VoltageMode {
    /// At or above Vcc-min: every cell is reliable, fault maps are ignored.
    High,
    /// Below Vcc-min: 6T cells fail per the fault map and the disabling scheme is
    /// active.
    Low,
}

/// Identifier of the cache fault-repair scheme in use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DisablingScheme {
    /// No scheme: an idealized cache that is assumed fault free at any voltage.
    /// Used as the normalization reference in the paper's figures.
    Baseline,
    /// Block-disabling (this paper): any block with a fault in its data, tag or
    /// metadata is disabled at low voltage; no latency overhead at any voltage.
    BlockDisabling,
    /// Word-disabling (Wilkerson et al.): pairs of blocks merge into one logical
    /// block at low voltage (half capacity, half associativity) and the alignment
    /// network adds one cycle of latency at *both* voltages.
    WordDisabling,
    /// Bit-fix (after Wilkerson et al.): one way per faulty set is sacrificed to
    /// store repair patterns for the set's other blocks; two extra cycles at low
    /// voltage only.
    BitFix,
    /// Way-sacrifice / set-remap: every set disables its worst way at low
    /// voltage (plus any blocks that are still faulty); no latency overhead.
    WaySacrifice,
}

impl DisablingScheme {
    /// Every scheme identifier, in the order the paper and the CLI present
    /// them: the one list of schemes, which
    /// [`repair::registry`](crate::repair::registry) resolves to
    /// implementations.
    pub const ALL: [DisablingScheme; 5] = [
        Self::Baseline,
        Self::BlockDisabling,
        Self::WordDisabling,
        Self::BitFix,
        Self::WaySacrifice,
    ];

    /// The behavior of this scheme: its [`RepairScheme`] implementation.
    #[must_use]
    pub fn repair(self) -> &'static dyn RepairScheme {
        match self {
            Self::Baseline => &crate::repair::BaselineScheme,
            Self::BlockDisabling => &crate::repair::BlockDisablingScheme,
            Self::WordDisabling => &crate::repair::WordDisablingScheme,
            Self::BitFix => &crate::repair::BitFixScheme,
            Self::WaySacrifice => &crate::repair::WaySacrificeScheme,
        }
    }

    /// Stable machine-readable name (the `vccmin-repro --scheme` vocabulary).
    #[must_use]
    pub fn name(self) -> &'static str {
        self.repair().name()
    }

    /// Parses a stable scheme name back into an identifier.
    #[must_use]
    pub fn from_name(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|s| s.name() == name)
    }

    /// Extra hit latency (cycles) the scheme's repair hardware adds to an
    /// access of any array it protects, L1 or L2, in the given voltage mode.
    #[must_use]
    pub fn extra_latency(self, mode: VoltageMode) -> u32 {
        self.repair().extra_latency(mode)
    }
}

/// Configuration of a victim cache attached to an L1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct VictimCacheConfig {
    /// Number of physical entries (16 in the paper).
    pub entries: usize,
    /// Cell technology: 10T keeps all entries at low voltage, 6T keeps roughly half
    /// (the paper's conservative assumption).
    pub technology: CellTechnology,
    /// Additional latency of a victim-cache hit, in cycles (1 in the paper).
    pub latency: u32,
}

impl VictimCacheConfig {
    /// The paper's 16-entry, 1-cycle victim cache built from 10T cells.
    #[must_use]
    pub fn ispass2010_10t() -> Self {
        Self {
            entries: 16,
            technology: CellTechnology::TenT,
            latency: 1,
        }
    }

    /// The paper's 16-entry victim cache built from 6T cells with per-entry disable
    /// bits (8 entries assumed usable at low voltage).
    #[must_use]
    pub fn ispass2010_6t() -> Self {
        Self {
            entries: 16,
            technology: CellTechnology::SixT,
            latency: 1,
        }
    }

    /// Number of entries usable in the given voltage mode.
    ///
    /// At low voltage a 6T victim cache keeps half of its entries — the paper's
    /// conservative assumption (the analytical mean is ~6.5 faulty of 16 at
    /// `pfail = 0.001`).
    #[must_use]
    pub fn usable_entries(&self, mode: VoltageMode) -> usize {
        match (mode, self.technology) {
            (VoltageMode::High, _) | (VoltageMode::Low, CellTechnology::TenT) => self.entries,
            (VoltageMode::Low, CellTechnology::SixT) => self.entries / 2,
        }
    }
}

/// Configuration of the L1 caches: the instruction and the data side are
/// built alike.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct L1Config {
    /// Physical geometry of the cache at high voltage.
    pub geometry: CacheGeometry,
    /// Fault-tolerance scheme.
    pub scheme: DisablingScheme,
    /// Base hit latency in cycles (3 in the paper), before any scheme overhead.
    pub base_latency: u32,
    /// Optional victim cache.
    pub victim: Option<VictimCacheConfig>,
}

impl L1Config {
    /// The paper's 32 KB, 8-way, 64 B/block, 3-cycle L1 with the given scheme and no
    /// victim cache.
    #[must_use]
    pub fn ispass2010(scheme: DisablingScheme) -> Self {
        Self {
            geometry: CacheGeometry::ispass2010_l1(),
            scheme,
            base_latency: 3,
            victim: None,
        }
    }

    /// L1 hit latency in cycles in the given voltage mode: the base latency
    /// plus the scheme's [`DisablingScheme::extra_latency`].
    #[must_use]
    pub fn hit_latency(&self, mode: VoltageMode) -> u32 {
        self.base_latency + self.scheme.extra_latency(mode)
    }
}

/// Errors resolving a low-voltage cache organization.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DisableError {
    /// A fault map is required for this scheme/mode but none was provided.
    MissingFaultMap,
    /// The fault map's geometry does not match the cache, or the geometry cannot be
    /// transformed as the scheme requires.
    GeometryMismatch,
    /// The repair scheme cannot repair this fault map at all (e.g. a word-disable
    /// subblock has more faulty words than the scheme tolerates), so the whole
    /// cache is unusable below Vcc-min.
    WholeCacheFailure,
}

impl std::fmt::Display for DisableError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::MissingFaultMap => write!(f, "a fault map is required for low-voltage operation"),
            Self::GeometryMismatch => write!(f, "fault map geometry does not match the cache"),
            Self::WholeCacheFailure => {
                write!(f, "the scheme cannot repair this fault map (whole-cache failure)")
            }
        }
    }
}

impl std::error::Error for DisableError {}

/// The organization `scheme` gives an array of `geometry` at `voltage`: the
/// whole array at high voltage or under a scheme that needs no fault map,
/// otherwise the scheme's repair of `fault_map`. The one path from a repair
/// scheme to a cache organization, for the L1I, the L1D and the L2 alike.
///
/// # Errors
///
/// Returns [`DisableError`] if a fault map is required but missing, does not
/// match the geometry, or the scheme cannot repair the map at all
/// (whole-cache failure).
pub(crate) fn resolve(
    scheme: DisablingScheme,
    geometry: CacheGeometry,
    voltage: VoltageMode,
    fault_map: Option<&FaultMap>,
) -> Result<ResolvedOrganization, DisableError> {
    let repair = scheme.repair();
    if voltage == VoltageMode::High || !repair.needs_fault_map() {
        return Ok(ResolvedOrganization {
            geometry,
            disabled: None,
        });
    }
    let map = fault_map.ok_or(DisableError::MissingFaultMap)?;
    if map.geometry() != &geometry {
        return Err(DisableError::GeometryMismatch);
    }
    repair.repair(map)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn map_at(pfail: f64, seed: u64) -> FaultMap {
        FaultMap::generate(&CacheGeometry::ispass2010_l1(), pfail, seed)
    }

    /// The organization `cfg`'s scheme gives the paper's L1 in `mode`.
    fn resolve_l1(
        cfg: &L1Config,
        mode: VoltageMode,
        map: Option<&FaultMap>,
    ) -> Result<ResolvedOrganization, DisableError> {
        resolve(cfg.scheme, cfg.geometry, mode, map)
    }

    fn capacity(org: &ResolvedOrganization, full: &CacheGeometry) -> f64 {
        org.usable_blocks() as f64 / full.blocks() as f64
    }

    #[test]
    fn baseline_ignores_fault_maps() {
        let cfg = L1Config::ispass2010(DisablingScheme::Baseline);
        let org = resolve_l1(&cfg, VoltageMode::Low, None).unwrap();
        assert_eq!(org.geometry, cfg.geometry);
        assert!(org.disabled.is_none());
        assert_eq!(cfg.hit_latency(VoltageMode::Low), 3);
        assert_eq!(capacity(&org, &cfg.geometry), 1.0);
    }

    #[test]
    fn word_disabling_adds_latency_even_at_high_voltage() {
        let cfg = L1Config::ispass2010(DisablingScheme::WordDisabling);
        let org = resolve_l1(&cfg, VoltageMode::High, None).unwrap();
        assert_eq!(cfg.hit_latency(VoltageMode::High), 4);
        assert_eq!(org.geometry, cfg.geometry);
        let block = L1Config::ispass2010(DisablingScheme::BlockDisabling);
        assert!(resolve_l1(&block, VoltageMode::High, None).is_ok());
        assert_eq!(block.hit_latency(VoltageMode::High), 3);
    }

    #[test]
    fn word_disabling_halves_capacity_at_low_voltage() {
        let cfg = L1Config::ispass2010(DisablingScheme::WordDisabling);
        let map = map_at(0.001, 11);
        let org = resolve_l1(&cfg, VoltageMode::Low, Some(&map)).unwrap();
        assert_eq!(org.geometry.size_bytes(), 16 * 1024);
        assert_eq!(org.geometry.associativity(), 4);
        assert_eq!(capacity(&org, &cfg.geometry), 0.5);
        assert_eq!(cfg.hit_latency(VoltageMode::Low), 4);
    }

    #[test]
    fn block_disabling_keeps_geometry_but_disables_blocks() {
        let cfg = L1Config::ispass2010(DisablingScheme::BlockDisabling);
        let map = map_at(0.001, 11);
        let org = resolve_l1(&cfg, VoltageMode::Low, Some(&map)).unwrap();
        assert_eq!(org.geometry, cfg.geometry);
        assert_eq!(cfg.hit_latency(VoltageMode::Low), 3);
        let cap = capacity(&org, &cfg.geometry);
        assert!((0.4..0.8).contains(&cap), "capacity fraction {cap}");
    }

    #[test]
    fn low_voltage_block_disabling_requires_a_fault_map() {
        let cfg = L1Config::ispass2010(DisablingScheme::BlockDisabling);
        assert_eq!(
            resolve_l1(&cfg, VoltageMode::Low, None).unwrap_err(),
            DisableError::MissingFaultMap
        );
    }

    #[test]
    fn mismatched_fault_map_is_rejected() {
        let cfg = L1Config::ispass2010(DisablingScheme::BlockDisabling);
        let other = FaultMap::generate(&CacheGeometry::ispass2010_l2(), 0.001, 0);
        assert_eq!(
            resolve_l1(&cfg, VoltageMode::Low, Some(&other)).unwrap_err(),
            DisableError::GeometryMismatch
        );
    }

    #[test]
    fn word_disabling_detects_whole_cache_failure() {
        let cfg = L1Config::ispass2010(DisablingScheme::WordDisabling);
        // At pfail=0.2 some subblock will certainly exceed 4 faulty words.
        let map = map_at(0.2, 3);
        assert_eq!(
            resolve_l1(&cfg, VoltageMode::Low, Some(&map)).unwrap_err(),
            DisableError::WholeCacheFailure
        );
    }

    /// The built hierarchy's side of this case (a 6T victim cache behind a
    /// block-disabled L1 keeps 8 entries and 1 cycle below Vcc-min) is
    /// checked against the frozen port in `hierarchy::resolver_port`.
    #[test]
    fn victim_cache_entry_count_depends_on_technology_and_voltage() {
        let v10 = VictimCacheConfig::ispass2010_10t();
        let v6 = VictimCacheConfig::ispass2010_6t();
        assert_eq!(v10.usable_entries(VoltageMode::High), 16);
        assert_eq!(v10.usable_entries(VoltageMode::Low), 16);
        assert_eq!(v6.usable_entries(VoltageMode::High), 16);
        assert_eq!(v6.usable_entries(VoltageMode::Low), 8);
        assert_eq!(v6.latency, 1);
    }

    #[test]
    fn error_display_is_informative() {
        assert!(DisableError::MissingFaultMap.to_string().contains("fault map"));
        assert!(DisableError::WholeCacheFailure.to_string().contains("whole-cache"));
        assert!(DisableError::GeometryMismatch.to_string().contains("geometry"));
    }
}
