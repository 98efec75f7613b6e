//! The named cache configurations of Table III of the paper.

use vccmin_cache::{DisablingScheme, HierarchyConfig, VictimCacheConfig, VoltageMode};

/// One of the cache configurations compared in the paper's evaluation (Table III).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SchemeConfig {
    /// Idealized fault-free cache, no victim cache (normalization reference of
    /// Figs. 8, 10 and 11).
    Baseline,
    /// Idealized fault-free cache with a 16-entry 10T victim cache (normalization
    /// reference of Figs. 9 and 12).
    BaselineVictim,
    /// Word-disabling (Wilkerson et al.): halved capacity/associativity at low
    /// voltage, +1 cycle L1 latency at both voltages.
    WordDisabling,
    /// Word-disabling with a 16-entry victim cache.
    WordDisablingVictim,
    /// Block-disabling (this paper), no victim cache.
    BlockDisabling,
    /// Block-disabling with a 16-entry 10T victim cache (all entries usable at low
    /// voltage).
    BlockDisablingVictim10T,
    /// Block-disabling with a 16-entry 6T victim cache (half the entries assumed
    /// usable at low voltage).
    BlockDisablingVictim6T,
    /// Bit-fix (after Wilkerson et al.): one way per faulty set sacrificed for
    /// repair patterns, +2 cycles at low voltage, no victim cache.
    BitFix,
    /// Way-sacrifice / set-remap: the worst way of every set disabled at low
    /// voltage, no latency overhead, no victim cache.
    WaySacrifice,
}

/// Every configuration whose low-voltage behavior the repo reports (the paper's
/// seven Table III rows plus the two additional repair schemes).
pub const ALL_LOW_VOLTAGE_SCHEMES: [SchemeConfig; 9] = [
    SchemeConfig::Baseline,
    SchemeConfig::BaselineVictim,
    SchemeConfig::WordDisabling,
    SchemeConfig::WordDisablingVictim,
    SchemeConfig::BlockDisabling,
    SchemeConfig::BlockDisablingVictim10T,
    SchemeConfig::BlockDisablingVictim6T,
    SchemeConfig::BitFix,
    SchemeConfig::WaySacrifice,
];

impl SchemeConfig {
    /// Human-readable label, matching the figure legends of the paper.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Self::Baseline => "baseline",
            Self::BaselineVictim => "baseline+V$",
            Self::WordDisabling => "word disabling",
            Self::WordDisablingVictim => "word disabling+V$",
            Self::BlockDisabling => "block disabling",
            Self::BlockDisablingVictim10T => "block disabling+V$ 10T",
            Self::BlockDisablingVictim6T => "block disabling+V$ 6T",
            Self::BitFix => "bit fix",
            Self::WaySacrifice => "way sacrifice",
        }
    }

    /// The underlying disabling scheme.
    #[must_use]
    pub fn scheme(self) -> DisablingScheme {
        match self {
            Self::Baseline | Self::BaselineVictim => DisablingScheme::Baseline,
            Self::WordDisabling | Self::WordDisablingVictim => DisablingScheme::WordDisabling,
            Self::BlockDisabling
            | Self::BlockDisablingVictim10T
            | Self::BlockDisablingVictim6T => DisablingScheme::BlockDisabling,
            Self::BitFix => DisablingScheme::BitFix,
            Self::WaySacrifice => DisablingScheme::WaySacrifice,
        }
    }

    /// The victim-cache-less configuration for a base repair scheme — what
    /// `vccmin-repro --scheme <name>` selects.
    #[must_use]
    pub fn for_scheme(scheme: DisablingScheme) -> Self {
        match scheme {
            DisablingScheme::Baseline => Self::Baseline,
            DisablingScheme::BlockDisabling => Self::BlockDisabling,
            DisablingScheme::WordDisabling => Self::WordDisabling,
            DisablingScheme::BitFix => Self::BitFix,
            DisablingScheme::WaySacrifice => Self::WaySacrifice,
        }
    }

    /// The victim-cache configuration attached to the L1s, if any.
    #[must_use]
    pub fn victim(self) -> Option<VictimCacheConfig> {
        match self {
            Self::Baseline
            | Self::WordDisabling
            | Self::BlockDisabling
            | Self::BitFix
            | Self::WaySacrifice => None,
            Self::BaselineVictim | Self::WordDisablingVictim | Self::BlockDisablingVictim10T => {
                Some(VictimCacheConfig::ispass2010_10t())
            }
            Self::BlockDisablingVictim6T => Some(VictimCacheConfig::ispass2010_6t()),
        }
    }

    /// Whether the configuration's low-voltage behavior depends on the sampled fault
    /// map (and therefore must be evaluated over many maps).
    #[must_use]
    pub fn fault_dependent(self) -> bool {
        self.scheme().repair().needs_fault_map()
    }

    /// Builds the full hierarchy configuration of Table III for this scheme at the
    /// given voltage (with the paper's perfect L2).
    #[must_use]
    pub fn hierarchy_config(self, voltage: VoltageMode) -> HierarchyConfig {
        let base = HierarchyConfig::ispass2010(self.scheme(), voltage);
        match self.victim() {
            Some(v) => base.with_victim_caches(v),
            None => base,
        }
    }

    /// [`SchemeConfig::hierarchy_config`] with the L2 protected per `l2`.
    #[must_use]
    pub fn hierarchy_config_with_l2(self, voltage: VoltageMode, l2: L2Protection) -> HierarchyConfig {
        self.hierarchy_config(voltage).with_l2_scheme(l2.scheme_for(self))
    }
}

impl std::fmt::Display for SchemeConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// How the unified L2 is protected below Vcc-min — the L2-faulty axis of the
/// simulation campaigns (`vccmin-repro --l2-scheme`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum L2Protection {
    /// The paper's implicit assumption: the L2 stays reliable below Vcc-min
    /// (10T cells or a separate voltage rail), so it is fault free at any
    /// supply. This is the default and reproduces the original memory system
    /// bit for bit.
    #[default]
    Perfect,
    /// The L2 carries the same repair scheme as the L1s of the configuration
    /// under test — each row of the scheme matrix protects the whole
    /// hierarchy with its own mechanism.
    Matched,
    /// The L2 carries one fixed repair scheme, independent of the L1
    /// configuration.
    Fixed(DisablingScheme),
}

impl L2Protection {
    /// The stable name of the default, fault-free choice.
    pub const PERFECT_NAME: &'static str = "perfect-l2";
    /// The stable name of the matched choice.
    pub const MATCHED_NAME: &'static str = "matched";

    /// The concrete L2 scheme for one cache configuration under test.
    #[must_use]
    pub fn scheme_for(self, config: SchemeConfig) -> DisablingScheme {
        match self {
            Self::Perfect => DisablingScheme::Baseline,
            Self::Matched => config.scheme(),
            Self::Fixed(scheme) => scheme,
        }
    }

    /// Whether any of `configs` needs an L2 fault map below Vcc-min under this
    /// protection.
    #[must_use]
    pub fn needs_fault_maps(self, configs: &[SchemeConfig]) -> bool {
        configs
            .iter()
            .any(|&c| self.scheme_for(c).repair().needs_fault_map())
    }

    /// Parses the `--l2-scheme` vocabulary: `perfect-l2`, `matched`, or any
    /// stable repair-scheme name from the registry.
    #[must_use]
    pub fn from_name(name: &str) -> Option<Self> {
        match name {
            Self::PERFECT_NAME => Some(Self::Perfect),
            Self::MATCHED_NAME => Some(Self::Matched),
            other => DisablingScheme::from_name(other).map(Self::Fixed),
        }
    }

    /// Stable machine-readable name (the inverse of [`L2Protection::from_name`]).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Self::Perfect => Self::PERFECT_NAME,
            Self::Matched => Self::MATCHED_NAME,
            Self::Fixed(scheme) => scheme.name(),
        }
    }
}

impl std::fmt::Display for L2Protection {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vccmin_cache::CellTechnology;

    #[test]
    fn labels_are_unique() {
        let labels: std::collections::HashSet<_> =
            ALL_LOW_VOLTAGE_SCHEMES.iter().map(|s| s.label()).collect();
        assert_eq!(labels.len(), ALL_LOW_VOLTAGE_SCHEMES.len());
    }

    #[test]
    fn baseline_configurations_are_fault_independent() {
        assert!(!SchemeConfig::Baseline.fault_dependent());
        assert!(!SchemeConfig::BaselineVictim.fault_dependent());
        assert!(SchemeConfig::BlockDisabling.fault_dependent());
        assert!(SchemeConfig::WordDisabling.fault_dependent());
    }

    #[test]
    fn victim_cell_technologies_match_the_paper() {
        assert_eq!(
            SchemeConfig::BlockDisablingVictim10T.victim().unwrap().technology,
            CellTechnology::TenT
        );
        assert_eq!(
            SchemeConfig::BlockDisablingVictim6T.victim().unwrap().technology,
            CellTechnology::SixT
        );
        assert!(SchemeConfig::BlockDisabling.victim().is_none());
    }

    #[test]
    fn hierarchy_configs_follow_table_three() {
        let low = SchemeConfig::WordDisabling.hierarchy_config(VoltageMode::Low);
        assert_eq!(low.memory_latency, HierarchyConfig::MEMORY_LATENCY_LOW_VOLTAGE);
        assert_eq!(low.l1.hit_latency(VoltageMode::Low), 4);
        let high = SchemeConfig::BlockDisabling.hierarchy_config(VoltageMode::High);
        assert_eq!(high.memory_latency, HierarchyConfig::MEMORY_LATENCY_HIGH_VOLTAGE);
        assert_eq!(high.l1.hit_latency(VoltageMode::High), 3);
        assert!(SchemeConfig::BaselineVictim
            .hierarchy_config(VoltageMode::High)
            .l1
            .victim
            .is_some());
    }

    #[test]
    fn display_matches_label() {
        assert_eq!(SchemeConfig::BlockDisabling.to_string(), "block disabling");
    }

    #[test]
    fn l2_protection_resolves_names_and_schemes() {
        assert_eq!(L2Protection::default(), L2Protection::Perfect);
        assert_eq!(L2Protection::from_name("perfect-l2"), Some(L2Protection::Perfect));
        assert_eq!(L2Protection::from_name("matched"), Some(L2Protection::Matched));
        assert_eq!(
            L2Protection::from_name("bit-fix"),
            Some(L2Protection::Fixed(DisablingScheme::BitFix))
        );
        assert!(L2Protection::from_name("no-such-l2").is_none());
        for l2 in [
            L2Protection::Perfect,
            L2Protection::Matched,
            L2Protection::Fixed(DisablingScheme::WordDisabling),
        ] {
            assert_eq!(L2Protection::from_name(l2.name()), Some(l2));
            assert_eq!(l2.to_string(), l2.name());
        }
        // Perfect resolves to the fault-free baseline everywhere; matched follows
        // the configuration under test.
        for &config in &ALL_LOW_VOLTAGE_SCHEMES {
            assert_eq!(L2Protection::Perfect.scheme_for(config), DisablingScheme::Baseline);
            assert_eq!(L2Protection::Matched.scheme_for(config), config.scheme());
        }
        assert!(!L2Protection::Perfect.needs_fault_maps(&ALL_LOW_VOLTAGE_SCHEMES));
        assert!(L2Protection::Matched.needs_fault_maps(&ALL_LOW_VOLTAGE_SCHEMES));
        assert!(!L2Protection::Matched.needs_fault_maps(&[SchemeConfig::Baseline]));
        assert!(L2Protection::Fixed(DisablingScheme::BlockDisabling)
            .needs_fault_maps(&[SchemeConfig::Baseline]));
    }

    #[test]
    fn hierarchy_config_with_l2_wires_the_scheme_through() {
        let cfg = SchemeConfig::BlockDisabling
            .hierarchy_config_with_l2(VoltageMode::Low, L2Protection::Matched);
        assert_eq!(cfg.l2_scheme, DisablingScheme::BlockDisabling);
        let perfect = SchemeConfig::BlockDisabling
            .hierarchy_config_with_l2(VoltageMode::Low, L2Protection::Perfect);
        assert_eq!(perfect, SchemeConfig::BlockDisabling.hierarchy_config(VoltageMode::Low));
    }

    #[test]
    fn new_schemes_are_wired_into_the_matrix() {
        assert_eq!(SchemeConfig::BitFix.scheme(), DisablingScheme::BitFix);
        assert!(SchemeConfig::BitFix.fault_dependent());
        assert!(SchemeConfig::WaySacrifice.fault_dependent());
        assert!(SchemeConfig::BitFix.victim().is_none());
        assert!(SchemeConfig::WaySacrifice.victim().is_none());
        for scheme in DisablingScheme::ALL {
            assert_eq!(SchemeConfig::for_scheme(scheme).scheme(), scheme);
            assert!(ALL_LOW_VOLTAGE_SCHEMES.contains(&SchemeConfig::for_scheme(scheme)));
        }
        // Bit-fix pays its two fix-pipeline cycles only below Vcc-min.
        let low = SchemeConfig::BitFix.hierarchy_config(VoltageMode::Low);
        assert_eq!(low.l1.hit_latency(VoltageMode::Low), 5);
        assert_eq!(low.l1.hit_latency(VoltageMode::High), 3);
    }
}
