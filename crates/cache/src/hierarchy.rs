//! Two-level cache hierarchy with optional victim caches and a repairable L2.
//!
//! The hierarchy mirrors the memory system of Table II/III of the paper: split L1
//! instruction and data caches (32 KB, 8-way, 64 B blocks, 3-cycle hit), optional
//! 16-entry victim caches (1 extra cycle), a unified 2 MB 8-way L2 (20-cycle hit)
//! and a flat main-memory latency (255 cycles at high voltage / 3 GHz, 51 cycles at
//! low voltage / 600 MHz).
//!
//! The hierarchy is a *functional + latency* model: each access returns the level
//! that served it and the total latency in cycles. The out-of-order CPU model treats
//! that latency as the completion time of the access and extracts memory-level
//! parallelism by overlapping independent accesses.
//!
//! # The L2 below Vcc-min
//!
//! Every cache in the hierarchy limits Vcc-min, not just the L1s. The L2 can
//! therefore carry its own repair scheme ([`HierarchyConfig::l2_scheme`], any
//! entry of the [`crate::repair::registry`]): below Vcc-min the scheme resolves
//! the L2 fault map into an effective organization (disabled ways for
//! block-disabling/bit-fix/way-sacrifice, a halved 1 MB geometry for
//! word-disabling) and adds its repair hardware's hit-latency penalty
//! ([`RepairScheme::extra_latency`](crate::repair::RepairScheme::extra_latency)).
//! The L1s and the L2 go through the same resolver and the same latency rule,
//! so a scheme behaves alike on every array it protects. The default L2
//! scheme is the idealized fault-free baseline ("perfect L2"), which
//! reproduces the paper's original memory system bit for bit.
//!
//! # Write-back model
//!
//! The caches are write-back, write-allocate tag stores. Stores mark the L1
//! block dirty; a block's dirty bit follows it into (and back out of) the
//! victim cache. Dirty data leaving the L1 side — an eviction with no victim
//! cache attached, a block displaced out of the victim cache, or a store whose
//! set has no usable way to allocate (written through) — takes an
//! accounted write-back path toward the L2: if the block is still resident in
//! the L2 its line is marked dirty (without touching LRU or demand-access
//! statistics, so write-back traffic never perturbs the demand hit/miss
//! stream), otherwise the data goes straight to memory. Dirty blocks evicted
//! from the L2 itself also drain to memory. [`HierarchyStats::writebacks`]
//! counts L1-side write-backs, [`HierarchyStats::memory_writebacks`] the dirty
//! data that reached memory; both model traffic, not latency (write-backs ride
//! the existing buses off the critical path).

use vccmin_fault::{CacheGeometry, FaultMap};

use crate::disabling::{resolve, DisableError, DisablingScheme, L1Config, VoltageMode};
use crate::repair::ResolvedOrganization;
use crate::set_assoc::SetAssocCache;
use crate::stats::HierarchyStats;
use crate::victim::VictimCache;

/// Which level of the hierarchy served an access.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum HitLevel {
    /// Served by the L1 (instruction or data).
    L1,
    /// Served by the victim cache attached to the L1.
    Victim,
    /// Served by the unified L2.
    L2,
    /// Served by main memory.
    Memory,
}

/// Result of one hierarchy access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessResult {
    /// Total access latency in cycles.
    pub latency: u32,
    /// Level that provided the data.
    pub level: HitLevel,
}

/// Configuration of the whole hierarchy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HierarchyConfig {
    /// Configuration of both L1s: the instruction and the data cache are
    /// built alike, each from its own fault map.
    pub l1: L1Config,
    /// Unified L2 geometry.
    pub l2_geometry: CacheGeometry,
    /// Fault-repair scheme protecting the unified L2. The default
    /// ([`DisablingScheme::Baseline`]) is the idealized "perfect L2" the paper
    /// assumes: fault free at any voltage, no latency overhead.
    pub l2_scheme: DisablingScheme,
    /// Base L2 hit latency in cycles, before any scheme overhead.
    pub l2_latency: u32,
    /// Main-memory latency in cycles.
    pub memory_latency: u32,
    /// Operating voltage mode.
    pub voltage: VoltageMode,
}

impl HierarchyConfig {
    /// Paper memory latency at high voltage (3 GHz): 255 cycles.
    pub const MEMORY_LATENCY_HIGH_VOLTAGE: u32 = 255;
    /// Paper memory latency at low voltage (600 MHz): 51 cycles.
    pub const MEMORY_LATENCY_LOW_VOLTAGE: u32 = 51;
    /// Paper L2 hit latency: 20 cycles.
    pub const L2_LATENCY: u32 = 20;

    /// A hierarchy with the paper's structural parameters, the given L1 scheme on
    /// both the instruction and data side, and the given voltage mode.
    #[must_use]
    pub fn ispass2010(scheme: DisablingScheme, voltage: VoltageMode) -> Self {
        Self {
            l1: L1Config::ispass2010(scheme),
            l2_geometry: CacheGeometry::ispass2010_l2(),
            l2_scheme: DisablingScheme::Baseline,
            l2_latency: Self::L2_LATENCY,
            memory_latency: match voltage {
                VoltageMode::High => Self::MEMORY_LATENCY_HIGH_VOLTAGE,
                VoltageMode::Low => Self::MEMORY_LATENCY_LOW_VOLTAGE,
            },
            voltage,
        }
    }

    /// The baseline configuration at high voltage (Table III, first row).
    #[must_use]
    pub fn ispass2010_baseline_high_voltage() -> Self {
        Self::ispass2010(DisablingScheme::Baseline, VoltageMode::High)
    }

    /// Attaches the same victim-cache configuration to both L1s.
    #[must_use]
    pub fn with_victim_caches(mut self, victim: crate::disabling::VictimCacheConfig) -> Self {
        self.l1.victim = Some(victim);
        self
    }

    /// Protects the unified L2 with the given repair scheme.
    #[must_use]
    pub fn with_l2_scheme(mut self, scheme: DisablingScheme) -> Self {
        self.l2_scheme = scheme;
        self
    }

    /// L2 hit latency in cycles in this configuration's voltage mode: the
    /// base latency plus the L2 scheme's
    /// [`DisablingScheme::extra_latency`], the rule every array follows.
    #[must_use]
    pub fn l2_hit_latency(&self) -> u32 {
        self.l2_latency + self.l2_scheme.extra_latency(self.voltage)
    }
}

/// The block address of a dirty [`VictimCache::insert`] displacement, if any.
/// A single access displaces at most one dirty block: a demand eviction only
/// bumps a victim-cache entry when the fill allocated (not bypassed), and the
/// bypassed-path re-insert follows a `take` that just freed an entry, so the
/// two can never displace in the same access.
fn dirty_displacement(displaced: Option<(u64, bool)>) -> Option<u64> {
    match displaced {
        Some((addr, true)) => Some(addr),
        _ => None,
    }
}

/// The tag store of a resolved organization: its geometry with the repair
/// scheme's disabled ways, if it disables any.
fn tag_store(org: &ResolvedOrganization) -> SetAssocCache {
    match &org.disabled {
        Some(mask) => SetAssocCache::with_disabled_ways(org.geometry, mask),
        None => SetAssocCache::new(org.geometry),
    }
}

/// One L1 cache plus its optional victim cache and latencies.
#[derive(Debug, Clone)]
struct L1Side {
    cache: SetAssocCache,
    victim: Option<VictimCache>,
    hit_latency: u32,
    victim_latency: u32,
}

/// What one [`L1Side::access`] did, carried to the L2 stage of the access.
struct L1Outcome {
    /// Latency accumulated on the L1 side so far.
    latency: u32,
    /// Level that served the request, or `None` if it continues to the L2.
    served: Option<HitLevel>,
    /// Block address of a dirty block this access pushed out of the L1 side
    /// (an uncovered dirty eviction, or a dirty block displaced out of the
    /// victim cache) that now owes a write-back.
    dirty_victim: Option<u64>,
    /// Whether the demand fill could not allocate (set with zero usable ways).
    /// Carried here so the L2 stage never has to re-probe the L1 side.
    bypassed: bool,
}

impl L1Side {
    /// An L1 of `config` in the organization its scheme resolved, with the
    /// victim-cache entries usable at the configured voltage (none if no
    /// entry is usable).
    fn build(org: &ResolvedOrganization, config: &HierarchyConfig) -> Self {
        let l1 = &config.l1;
        let victim = l1
            .victim
            .map(|v| v.usable_entries(config.voltage))
            .filter(|&entries| entries > 0)
            .map(|entries| VictimCache::new(entries, org.geometry.block_bytes()));
        Self {
            cache: tag_store(org),
            victim,
            hit_latency: l1.hit_latency(config.voltage),
            victim_latency: l1.victim.map_or(0, |v| v.latency),
        }
    }

    /// Accesses this L1 (and its victim cache). See [`L1Outcome`] for what the
    /// caller learns; `served` is `None` if the request must continue to the
    /// next level.
    #[inline]
    fn access(&mut self, addr: u64, write: bool) -> L1Outcome {
        let outcome = self.cache.access(addr, write);
        if outcome.hit {
            return L1Outcome {
                latency: self.hit_latency,
                served: Some(HitLevel::L1),
                dirty_victim: None,
                bypassed: false,
            };
        }
        // The demand access allocated (or bypassed); handle the eviction and probe the
        // victim cache. The probe overlaps with the start of the L2 access, so its
        // extra cycle is only charged when it actually hits (Table III: 1-cycle
        // victim-cache latency).
        if let Some(victim) = &mut self.victim {
            let mut dirty_victim = None;
            if let Some(evicted) = outcome.evicted {
                dirty_victim = dirty_displacement(victim.insert(evicted, outcome.evicted_dirty));
            }
            if let Some(prior_dirty) = victim.take(addr) {
                // The block moves back into the L1 (it was just allocated by the
                // demand access unless the set is unusable; in that case it stays in
                // the victim cache). Either way it keeps any write-back obligation
                // it accumulated before it was evicted.
                if outcome.bypassed {
                    dirty_victim = dirty_displacement(victim.insert(addr, prior_dirty || write));
                } else if prior_dirty {
                    self.cache.mark_dirty(addr);
                }
                return L1Outcome {
                    latency: self.hit_latency + self.victim_latency,
                    served: Some(HitLevel::Victim),
                    dirty_victim,
                    bypassed: outcome.bypassed,
                };
            }
            L1Outcome {
                latency: self.hit_latency,
                served: None,
                dirty_victim,
                bypassed: outcome.bypassed,
            }
        } else {
            // No victim cache: a dirty eviction goes straight to the write-back path.
            let dirty_victim = if outcome.evicted_dirty {
                outcome.evicted
            } else {
                None
            };
            L1Outcome {
                latency: self.hit_latency,
                served: None,
                dirty_victim,
                bypassed: outcome.bypassed,
            }
        }
    }

    /// Handles the arrival of a fill from a lower level when the demand access could
    /// not allocate (set with zero usable ways): stash it in the victim cache so the
    /// block is not immediately lost. Returns the address of a dirty block the
    /// insertion displaced, if any.
    fn fill_bypassed(&mut self, addr: u64, write: bool) -> Option<u64> {
        self.victim
            .as_mut()
            .and_then(|victim| dirty_displacement(victim.insert(addr, write)))
    }

    fn has_victim(&self) -> bool {
        self.victim.is_some()
    }
}

/// The full two-level hierarchy.
#[derive(Debug, Clone)]
pub struct CacheHierarchy {
    config: HierarchyConfig,
    l1i: L1Side,
    l1d: L1Side,
    l2: SetAssocCache,
    l2_hit_latency: u32,
    memory_accesses: u64,
    writebacks: u64,
    memory_writebacks: u64,
}

impl CacheHierarchy {
    /// Builds a hierarchy with no faults (high-voltage operation, or a baseline).
    ///
    /// # Panics
    ///
    /// Panics if the configuration requires fault maps (a low-voltage
    /// fault-dependent scheme on an L1 or the L2); use
    /// [`CacheHierarchy::with_all_fault_maps`] for those.
    #[must_use]
    pub fn new(config: HierarchyConfig) -> Self {
        Self::with_all_fault_maps(config, None, None, None)
            // simlint::allow(panic-path, "documented `# Panics` constructor; fault-free builds are infallible")
            .expect("configurations without fault maps cannot fail to build")
    }

    /// Builds a hierarchy, resolving the organization of each L1 *and* of the
    /// unified L2 from the provided fault maps. A map is only read where its
    /// array's scheme needs one below Vcc-min.
    ///
    /// # Errors
    ///
    /// Returns [`DisableError`] if a required fault map is missing or inconsistent,
    /// or if a scheme cannot repair its map at all (whole-cache failure).
    pub fn with_all_fault_maps(
        config: HierarchyConfig,
        l1i_faults: Option<&FaultMap>,
        l1d_faults: Option<&FaultMap>,
        l2_faults: Option<&FaultMap>,
    ) -> Result<Self, DisableError> {
        let [l1i, l1d, l2] = Self::organizations(&config, l1i_faults, l1d_faults, l2_faults)?;
        Ok(Self {
            config,
            l1i: L1Side::build(&l1i, &config),
            l1d: L1Side::build(&l1d, &config),
            l2: tag_store(&l2),
            l2_hit_latency: config.l2_hit_latency(),
            memory_accesses: 0,
            writebacks: 0,
            memory_writebacks: 0,
        })
    }

    /// Whether [`CacheHierarchy::with_all_fault_maps`] succeeds for these
    /// fault maps: every cache's repair scheme can resolve its organization.
    /// Builds no cache array, so checking a map costs a repair pass, not a
    /// hierarchy.
    #[must_use]
    pub fn repairable(
        config: HierarchyConfig,
        l1i_faults: Option<&FaultMap>,
        l1d_faults: Option<&FaultMap>,
        l2_faults: Option<&FaultMap>,
    ) -> bool {
        Self::organizations(&config, l1i_faults, l1d_faults, l2_faults).is_ok()
    }

    /// The organizations of the L1I, the L1D and the L2, in that order, each
    /// from the one resolver: the half of construction that can fail, and
    /// that allocates no tag store.
    fn organizations(
        config: &HierarchyConfig,
        l1i_faults: Option<&FaultMap>,
        l1d_faults: Option<&FaultMap>,
        l2_faults: Option<&FaultMap>,
    ) -> Result<[ResolvedOrganization; 3], DisableError> {
        let l1 = |faults| resolve(config.l1.scheme, config.l1.geometry, config.voltage, faults);
        let l2 = |faults| resolve(config.l2_scheme, config.l2_geometry, config.voltage, faults);
        Ok([l1(l1i_faults)?, l1(l1d_faults)?, l2(l2_faults)?])
    }

    /// The configuration this hierarchy was built from.
    #[must_use]
    pub fn config(&self) -> &HierarchyConfig {
        &self.config
    }

    /// Accesses the instruction side (a fetch of the block containing `addr`).
    pub fn access_instr(&mut self, addr: u64) -> AccessResult {
        let result = Self::access_side(
            &mut self.l1i,
            &mut self.l2,
            &mut self.memory_accesses,
            &mut self.writebacks,
            &mut self.memory_writebacks,
            self.l2_hit_latency,
            self.config.memory_latency,
            addr,
            false,
        );
        self.debug_check_accounting();
        result
    }

    /// Accesses the data side (`write` = true for stores).
    pub fn access_data(&mut self, addr: u64, write: bool) -> AccessResult {
        let result = Self::access_side(
            &mut self.l1d,
            &mut self.l2,
            &mut self.memory_accesses,
            &mut self.writebacks,
            &mut self.memory_writebacks,
            self.l2_hit_latency,
            self.config.memory_latency,
            addr,
            write,
        );
        self.debug_check_accounting();
        result
    }

    /// Accesses the data side with a whole slice of `(address, is_store)`
    /// pairs, appending one [`AccessResult`] per access (in order) to
    /// `results`.
    ///
    /// Semantically identical to calling [`CacheHierarchy::access_data`] once
    /// per element — the batch is processed strictly in slice order — but the
    /// per-access entry cost (dispatch, field split-borrows, and in debug
    /// builds the accounting invariants, checked once per batch instead of
    /// once per access) is paid once per slice. Callers that accumulate
    /// naturally batched work (a commit stage's stores, a trace chunk, a
    /// benchmark stream) should prefer this entry point.
    pub fn access_data_batch(&mut self, accesses: &[(u64, bool)], results: &mut Vec<AccessResult>) {
        results.reserve(accesses.len());
        for &(addr, write) in accesses {
            results.push(Self::access_side(
                &mut self.l1d,
                &mut self.l2,
                &mut self.memory_accesses,
                &mut self.writebacks,
                &mut self.memory_writebacks,
                self.l2_hit_latency,
                self.config.memory_latency,
                addr,
                write,
            ));
        }
        self.debug_check_accounting();
    }

    /// Accesses the instruction side with a whole slice of fetch addresses,
    /// appending one [`AccessResult`] per address (in order) to `results`.
    /// The instruction-side counterpart of
    /// [`CacheHierarchy::access_data_batch`].
    pub fn access_instr_batch(&mut self, addrs: &[u64], results: &mut Vec<AccessResult>) {
        results.reserve(addrs.len());
        for &addr in addrs {
            results.push(Self::access_side(
                &mut self.l1i,
                &mut self.l2,
                &mut self.memory_accesses,
                &mut self.writebacks,
                &mut self.memory_writebacks,
                self.l2_hit_latency,
                self.config.memory_latency,
                addr,
                false,
            ));
        }
        self.debug_check_accounting();
    }

    /// Drains a dirty block the L1 side pushed out (or wrote through): it is
    /// written back into the L2 if its line is still resident there, and to
    /// memory otherwise.
    fn drain_writeback(
        l2: &mut SetAssocCache,
        writebacks: &mut u64,
        memory_writebacks: &mut u64,
        dirty_victim: Option<u64>,
    ) {
        if let Some(addr) = dirty_victim {
            *writebacks += 1;
            if !l2.mark_dirty(addr) {
                *memory_writebacks += 1;
            }
        }
    }

    #[allow(clippy::too_many_arguments)] // split borrows of the hierarchy's fields
    #[inline]
    fn access_side(
        l1: &mut L1Side,
        l2: &mut SetAssocCache,
        memory_accesses: &mut u64,
        writebacks: &mut u64,
        memory_writebacks: &mut u64,
        l2_latency: u32,
        memory_latency: u32,
        addr: u64,
        write: bool,
    ) -> AccessResult {
        let l1_outcome = l1.access(addr, write);
        Self::drain_writeback(l2, writebacks, memory_writebacks, l1_outcome.dirty_victim);
        if let Some(level) = l1_outcome.served {
            return AccessResult {
                latency: l1_outcome.latency,
                level,
            };
        }
        // L1 (and victim) missed: go to the L2. A dirty block the L2 fill evicts
        // drains to memory (the L2 is the last cache level).
        let l2_outcome = l2.access(addr, false);
        if l2_outcome.evicted_dirty {
            *memory_writebacks += 1;
        }
        let level = if l2_outcome.hit {
            HitLevel::L2
        } else {
            *memory_accesses += 1;
            HitLevel::Memory
        };
        let total = match level {
            HitLevel::L2 => l1_outcome.latency + l2_latency,
            _ => l1_outcome.latency + l2_latency + memory_latency,
        };
        // The L1 outcome already says whether the fill was bypassed, so no
        // re-probe of the L1 side is needed here: on this `served == None`
        // path a bypassed block is in neither the L1 (never allocated) nor
        // the victim cache (the `take` probe just missed).
        if l1_outcome.bypassed {
            if l1.has_victim() {
                let displaced = l1.fill_bypassed(addr, write);
                Self::drain_writeback(l2, writebacks, memory_writebacks, displaced);
            } else if write {
                // The store's block cannot be cached anywhere on the L1 side:
                // its data writes through to the L2 (or memory) immediately, so
                // the modified state is never silently dropped.
                Self::drain_writeback(l2, writebacks, memory_writebacks, Some(addr));
            }
        }
        AccessResult {
            latency: total,
            level,
        }
    }

    /// Accounting invariants, checked after every access and on every
    /// [`stats`](Self::stats) read. `debug_assert!` compiles to nothing in
    /// release builds, so the optimized simulator pays no cost; debug test
    /// runs verify the write-back bookkeeping on every single access.
    fn debug_check_accounting(&self) {
        #[cfg(debug_assertions)]
        {
            let consistent = |label: &str, s: &crate::stats::CacheStats| {
                debug_assert_eq!(
                    s.hits + s.misses,
                    s.accesses,
                    "{label}: hits + misses must equal accesses"
                );
            };
            consistent("l1i", self.l1i.cache.stats());
            consistent("l1d", self.l1d.cache.stats());
            consistent("l2", self.l2.stats());
            if let Some(v) = &self.l1i.victim {
                consistent("l1i victim", v.stats());
            }
            if let Some(v) = &self.l1d.victim {
                consistent("l1d victim", v.stats());
            }
            // Demand caches only evict to fill, and only a miss fills.
            debug_assert!(
                self.l1i.cache.stats().evictions <= self.l1i.cache.stats().misses,
                "l1i: every eviction is caused by a miss fill"
            );
            debug_assert!(
                self.l1d.cache.stats().evictions <= self.l1d.cache.stats().misses,
                "l1d: every eviction is caused by a miss fill"
            );
            // The L2 is only consulted on an L1-side miss, and every L2 miss
            // goes to memory — the two counters move in lockstep.
            debug_assert_eq!(
                self.memory_accesses,
                self.l2.stats().misses,
                "memory accesses must equal L2 misses"
            );
            // Dirty data reaches memory through a counted L1-side write-back
            // (L2 line not resident) or through a dirty L2 eviction — never
            // out of thin air.
            debug_assert!(
                self.memory_writebacks <= self.writebacks + self.l2.stats().evictions,
                "memory write-backs need an L1 write-back or a dirty L2 eviction as a source"
            );
        }
    }

    /// Counters for every structure in the hierarchy.
    #[must_use]
    pub fn stats(&self) -> HierarchyStats {
        self.debug_check_accounting();
        HierarchyStats {
            l1i: *self.l1i.cache.stats(),
            l1d: *self.l1d.cache.stats(),
            l1i_victim: self
                .l1i
                .victim
                .as_ref()
                .map(|v| *v.stats())
                .unwrap_or_default(),
            l1d_victim: self
                .l1d
                .victim
                .as_ref()
                .map(|v| *v.stats())
                .unwrap_or_default(),
            l2: *self.l2.stats(),
            memory_accesses: self.memory_accesses,
            writebacks: self.writebacks,
            memory_writebacks: self.memory_writebacks,
        }
    }

    /// Resets every counter (contents are preserved).
    pub fn reset_stats(&mut self) {
        self.l1i.cache.reset_stats();
        self.l1d.cache.reset_stats();
        if let Some(v) = &mut self.l1i.victim {
            v.reset_stats();
        }
        if let Some(v) = &mut self.l1d.victim {
            v.reset_stats();
        }
        self.l2.reset_stats();
        self.memory_accesses = 0;
        self.writebacks = 0;
        self.memory_writebacks = 0;
    }

    /// Usable data-side L1 blocks (after block-disabling), useful for reporting.
    #[must_use]
    pub fn l1d_usable_blocks(&self) -> u64 {
        self.l1d.cache.usable_blocks()
    }

    /// L1 hit latency in cycles (includes any scheme overhead), shared by
    /// the instruction and the data side.
    #[must_use]
    pub fn l1_hit_latency(&self) -> u32 {
        self.l1d.hit_latency
    }

    /// Usable L2 blocks after the L2 scheme's repair, useful for reporting.
    #[must_use]
    pub fn l2_usable_blocks(&self) -> u64 {
        self.l2.usable_blocks()
    }

    /// L2 hit latency in cycles (includes the L2 scheme's overhead).
    #[must_use]
    pub fn l2_hit_latency(&self) -> u32 {
        self.l2_hit_latency
    }
}

/// Test only: the resolver against a frozen port of the code it replaced.
mod resolver_port;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::disabling::VictimCacheConfig;

    #[test]
    fn repeated_access_moves_up_the_hierarchy() {
        let mut h = CacheHierarchy::new(HierarchyConfig::ispass2010_baseline_high_voltage());
        let first = h.access_data(0x4000, false);
        assert_eq!(first.level, HitLevel::Memory);
        assert_eq!(
            first.latency,
            3 + HierarchyConfig::L2_LATENCY + HierarchyConfig::MEMORY_LATENCY_HIGH_VOLTAGE
        );
        let second = h.access_data(0x4000, false);
        assert_eq!(second.level, HitLevel::L1);
        assert_eq!(second.latency, 3);
    }

    #[test]
    fn l2_serves_blocks_evicted_from_l1() {
        let mut h = CacheHierarchy::new(HierarchyConfig::ispass2010_baseline_high_voltage());
        let geom = CacheGeometry::ispass2010_l1();
        // Fill one L1 set past its associativity; the first block falls back to L2.
        let set_stride = geom.sets() * geom.block_bytes();
        let addrs: Vec<u64> = (0..geom.associativity() + 1).map(|i| i * set_stride).collect();
        for &a in &addrs {
            h.access_data(a, false);
        }
        let again = h.access_data(addrs[0], false);
        assert_eq!(again.level, HitLevel::L2);
        assert_eq!(again.latency, 3 + HierarchyConfig::L2_LATENCY);
    }

    #[test]
    fn victim_cache_catches_conflict_misses() {
        let cfg = HierarchyConfig::ispass2010(DisablingScheme::Baseline, VoltageMode::High)
            .with_victim_caches(VictimCacheConfig::ispass2010_10t());
        let mut h = CacheHierarchy::new(cfg);
        let geom = CacheGeometry::ispass2010_l1();
        let set_stride = geom.sets() * geom.block_bytes();
        let addrs: Vec<u64> = (0..geom.associativity() + 1).map(|i| i * set_stride).collect();
        for &a in &addrs {
            h.access_data(a, false);
        }
        // addrs[0] was just evicted into the victim cache.
        let again = h.access_data(addrs[0], false);
        assert_eq!(again.level, HitLevel::Victim);
        assert_eq!(again.latency, 3 + 1);
        assert!(h.stats().l1d_victim.hits >= 1);
    }

    #[test]
    fn word_disabling_latency_is_longer() {
        let mut word = CacheHierarchy::new(HierarchyConfig::ispass2010(
            DisablingScheme::WordDisabling,
            VoltageMode::High,
        ));
        let mut block = CacheHierarchy::new(HierarchyConfig::ispass2010(
            DisablingScheme::BlockDisabling,
            VoltageMode::High,
        ));
        word.access_data(0x40, false);
        block.access_data(0x40, false);
        assert_eq!(word.access_data(0x40, false).latency, 4);
        assert_eq!(block.access_data(0x40, false).latency, 3);
    }

    #[test]
    fn low_voltage_block_disabling_requires_maps_and_reduces_capacity() {
        let cfg = HierarchyConfig::ispass2010(DisablingScheme::BlockDisabling, VoltageMode::Low);
        assert!(CacheHierarchy::with_all_fault_maps(cfg, None, None, None).is_err());

        let geom = CacheGeometry::ispass2010_l1();
        let mi = FaultMap::generate(&geom, 0.001, 1);
        let md = FaultMap::generate(&geom, 0.001, 2);
        let h = CacheHierarchy::with_all_fault_maps(cfg, Some(&mi), Some(&md), None).unwrap();
        assert_eq!(h.l1d_usable_blocks(), md.fault_free_blocks());
        assert!(h.l1d_usable_blocks() < geom.blocks());
        assert_eq!(h.config().memory_latency, HierarchyConfig::MEMORY_LATENCY_LOW_VOLTAGE);
    }

    #[test]
    fn low_voltage_word_disabling_halves_the_l1() {
        let cfg = HierarchyConfig::ispass2010(DisablingScheme::WordDisabling, VoltageMode::Low);
        let geom = CacheGeometry::ispass2010_l1();
        let mi = FaultMap::generate(&geom, 0.001, 5);
        let md = FaultMap::generate(&geom, 0.001, 6);
        let mut h = CacheHierarchy::with_all_fault_maps(cfg, Some(&mi), Some(&md), None).unwrap();
        assert_eq!(h.l1d_usable_blocks(), geom.blocks() / 2);
        h.access_data(0x40, false);
        assert_eq!(h.access_data(0x40, false).latency, 4);
    }

    #[test]
    fn instruction_and_data_sides_are_independent_l1s() {
        let mut h = CacheHierarchy::new(HierarchyConfig::ispass2010_baseline_high_voltage());
        h.access_instr(0x8000);
        // The data side has not seen this block; it must miss in L1 but hit in L2.
        let r = h.access_data(0x8000, false);
        assert_eq!(r.level, HitLevel::L2);
        let s = h.stats();
        assert_eq!(s.l1i.accesses, 1);
        assert_eq!(s.l1d.accesses, 1);
        assert_eq!(s.l2.accesses, 2);
        assert_eq!(s.memory_accesses, 1);
    }

    #[test]
    fn stats_reset_clears_counters() {
        let mut h = CacheHierarchy::new(HierarchyConfig::ispass2010_baseline_high_voltage());
        h.access_data(0x40, true);
        h.reset_stats();
        let s = h.stats();
        assert_eq!(s.l1d.accesses, 0);
        assert_eq!(s.l2.accesses, 0);
        assert_eq!(s.memory_accesses, 0);
        // Contents survive the reset.
        assert_eq!(h.access_data(0x40, false).level, HitLevel::L1);
    }

    /// Addresses that all map to L1 set 0 (and distinct tags).
    fn l1_set0_addrs(n: u64) -> Vec<u64> {
        let geom = CacheGeometry::ispass2010_l1();
        let set_stride = geom.sets() * geom.block_bytes();
        (1..=n).map(|i| i * set_stride).collect()
    }

    #[test]
    fn victim_cache_round_trip_preserves_the_dirty_bit() {
        // Write a block, evict it into the victim cache, pull it back via a victim
        // hit, then evict it again *without* writing: the write-back obligation
        // acquired before the first eviction must survive the round trip.
        let cfg = HierarchyConfig::ispass2010(DisablingScheme::Baseline, VoltageMode::High)
            .with_victim_caches(VictimCacheConfig::ispass2010_10t());
        let mut h = CacheHierarchy::new(cfg);
        let addrs = l1_set0_addrs(9);
        h.access_data(addrs[0], true); // dirty
        for &a in &addrs[1..] {
            h.access_data(a, false); // evicts addrs[0] (dirty) into the victim cache
        }
        let back = h.access_data(addrs[0], false);
        assert_eq!(back.level, HitLevel::Victim);
        // Evict addrs[0] again by refilling the set with clean blocks: its dirty
        // bit must have followed it out of the victim cache, so the eventual
        // departure from the L1 side is an accounted write-back.
        let before = h.stats().writebacks;
        for i in 10..40u64 {
            h.access_data(i * 64 * 64, false);
        }
        assert!(
            h.stats().writebacks > before,
            "the round-tripped dirty block lost its write-back obligation"
        );
    }

    #[test]
    fn bypassed_victim_reinsertion_keeps_prior_dirty_state() {
        // Every L1 block disabled: blocks live only in the victim cache. A block
        // stored once must keep its dirty bit across take/re-insert cycles on the
        // bypassed path, and surface as a write-back when finally displaced.
        let geom = CacheGeometry::ispass2010_l1();
        let cfg = HierarchyConfig::ispass2010(DisablingScheme::BlockDisabling, VoltageMode::Low)
            .with_victim_caches(VictimCacheConfig::ispass2010_10t());
        let all_faulty = FaultMap::generate(&geom, 1.0, 0);
        let mut h =
            CacheHierarchy::with_all_fault_maps(cfg, Some(&all_faulty), Some(&all_faulty), None)
                .unwrap();
        h.access_data(0x40, true); // miss -> fill_bypassed stores it dirty
        let second = h.access_data(0x40, false); // victim hit, re-inserted (bypassed path)
        assert_eq!(second.level, HitLevel::Victim);
        assert_eq!(h.stats().writebacks, 0);
        // Displace the whole victim cache with clean blocks; the dirty block must
        // leave through the write-back path exactly once.
        for i in 1..=16u64 {
            h.access_data(0x100_0000 + i * 64, false);
        }
        assert_eq!(h.stats().writebacks, 1);
    }

    #[test]
    fn bypassed_stores_without_a_victim_cache_write_through() {
        // Every L1 block disabled and no victim cache: a store cannot be cached
        // anywhere on the L1 side, so its data must write through to the L2
        // (counted), while loads owe nothing.
        let geom = CacheGeometry::ispass2010_l1();
        let cfg = HierarchyConfig::ispass2010(DisablingScheme::BlockDisabling, VoltageMode::Low);
        let all_faulty = FaultMap::generate(&geom, 1.0, 0);
        let mut h =
            CacheHierarchy::with_all_fault_maps(cfg, Some(&all_faulty), Some(&all_faulty), None)
                .unwrap();
        h.access_data(0x40, false);
        assert_eq!(h.stats().writebacks, 0, "loads never write through");
        h.access_data(0x40, true);
        let s = h.stats();
        assert_eq!(s.writebacks, 1);
        // The demand miss allocated the line in the (perfect) L2, so the
        // write-through landed there, not in memory.
        assert_eq!(s.memory_writebacks, 0);
    }

    #[test]
    fn uncovered_dirty_evictions_write_back_into_the_l2() {
        // No victim cache: a dirty block evicted from the L1 must mark its L2 line
        // dirty (counted as a write-back) instead of vanishing.
        let mut h = CacheHierarchy::new(HierarchyConfig::ispass2010_baseline_high_voltage());
        let addrs = l1_set0_addrs(9);
        h.access_data(addrs[0], true); // dirty
        for &a in &addrs[1..] {
            h.access_data(a, false); // the last fill evicts dirty addrs[0]
        }
        let s = h.stats();
        assert_eq!(s.writebacks, 1);
        assert_eq!(
            s.memory_writebacks, 0,
            "the block is still resident in the L2, so nothing reached memory"
        );
        // Clean evictions never count.
        let mut clean = CacheHierarchy::new(HierarchyConfig::ispass2010_baseline_high_voltage());
        for &a in &l1_set0_addrs(9) {
            clean.access_data(a, false);
        }
        assert_eq!(clean.stats().writebacks, 0);
    }

    #[test]
    fn writebacks_missing_the_l2_drain_to_memory() {
        // A fully faulty block-disabled L2 bypasses every fill, so a dirty L1
        // eviction finds no L2 line and must be accounted as a memory write-back.
        let l2_geom = CacheGeometry::ispass2010_l2();
        let cfg = HierarchyConfig::ispass2010(DisablingScheme::BlockDisabling, VoltageMode::Low)
            .with_l2_scheme(DisablingScheme::BlockDisabling);
        let l1_map = FaultMap::generate(&CacheGeometry::ispass2010_l1(), 0.0, 1);
        let l2_map = FaultMap::generate(&l2_geom, 1.0, 2);
        let mut h =
            CacheHierarchy::with_all_fault_maps(cfg, Some(&l1_map), Some(&l1_map), Some(&l2_map))
                .unwrap();
        assert_eq!(h.l2_usable_blocks(), 0);
        let addrs = l1_set0_addrs(9);
        h.access_data(addrs[0], true);
        for &a in &addrs[1..] {
            h.access_data(a, false);
        }
        let s = h.stats();
        assert_eq!(s.writebacks, 1);
        assert_eq!(s.memory_writebacks, 1);
    }

    #[test]
    fn stats_writeback_counters_accumulate_and_reset() {
        let mut h = CacheHierarchy::new(HierarchyConfig::ispass2010_baseline_high_voltage());
        for round in 0..3u64 {
            for &a in &l1_set0_addrs(9) {
                h.access_data(a, round == 0 || a % 128 == 0);
            }
        }
        let s = h.stats();
        assert!(s.writebacks > 0);
        assert!(s.memory_writebacks <= s.writebacks + s.l2.evictions);
        h.reset_stats();
        let r = h.stats();
        assert_eq!((r.writebacks, r.memory_writebacks), (0, 0));
    }

    #[test]
    fn perfect_l2_is_the_default_and_matches_the_legacy_constructor() {
        // The default configuration carries the idealized baseline L2, and a
        // hierarchy built without an L2 map agrees bit for bit on the access
        // stream with one handed a stray L2 map.
        let cfg = HierarchyConfig::ispass2010(DisablingScheme::BlockDisabling, VoltageMode::Low);
        assert_eq!(cfg.l2_scheme, DisablingScheme::Baseline);
        assert_eq!(cfg.l2_hit_latency(), HierarchyConfig::L2_LATENCY);
        let geom = CacheGeometry::ispass2010_l1();
        let mi = FaultMap::generate(&geom, 0.001, 1);
        let md = FaultMap::generate(&geom, 0.001, 2);
        let stray_l2_map = FaultMap::generate(&CacheGeometry::ispass2010_l2(), 0.001, 3);
        let mut a = CacheHierarchy::with_all_fault_maps(cfg, Some(&mi), Some(&md), None).unwrap();
        // A baseline L2 ignores any provided map, like the baseline L1 does.
        let mut b =
            CacheHierarchy::with_all_fault_maps(cfg, Some(&mi), Some(&md), Some(&stray_l2_map))
                .unwrap();
        for i in 0..20_000u64 {
            let addr = (i * 97) % (1 << 22);
            assert_eq!(a.access_data(addr, i % 5 == 0), b.access_data(addr, i % 5 == 0));
        }
        assert_eq!(a.stats(), b.stats());
    }

    #[test]
    fn faulty_l2_loses_capacity_and_pays_the_scheme_latency() {
        let l2_geom = CacheGeometry::ispass2010_l2();
        let l2_map = FaultMap::generate(&l2_geom, 0.001, 9);
        let cfg = HierarchyConfig::ispass2010(DisablingScheme::Baseline, VoltageMode::Low)
            .with_l2_scheme(DisablingScheme::BitFix);
        // A fault-dependent L2 scheme requires an L2 map at low voltage.
        assert_eq!(
            CacheHierarchy::with_all_fault_maps(cfg, None, None, None).unwrap_err(),
            DisableError::MissingFaultMap
        );
        let mut h = CacheHierarchy::with_all_fault_maps(cfg, None, None, Some(&l2_map)).unwrap();
        assert!(h.l2_usable_blocks() < l2_geom.blocks());
        // Bit-fix charges its two fix-pipeline cycles on L2 hits below Vcc-min.
        assert_eq!(h.l2_hit_latency(), HierarchyConfig::L2_LATENCY + 2);
        h.access_data(0x40_0000, false);
        h.access_instr(0x40_0000);
        let r = h.access_instr(0x40_0000 + 64 * 64); // same L2 block? no: different set
        assert!(r.latency >= 3);

        // A word-disabled L2 presents the halved organization.
        let wd = HierarchyConfig::ispass2010(DisablingScheme::Baseline, VoltageMode::Low)
            .with_l2_scheme(DisablingScheme::WordDisabling);
        let usable_map = FaultMap::generate(&l2_geom, 0.0001, 4);
        let wd_h =
            CacheHierarchy::with_all_fault_maps(wd, None, None, Some(&usable_map)).unwrap();
        assert_eq!(wd_h.l2_usable_blocks(), l2_geom.blocks() / 2);
        assert_eq!(wd_h.l2_hit_latency(), HierarchyConfig::L2_LATENCY + 1);
    }

    #[test]
    fn mismatched_l2_fault_map_is_rejected() {
        let cfg = HierarchyConfig::ispass2010(DisablingScheme::Baseline, VoltageMode::Low)
            .with_l2_scheme(DisablingScheme::BlockDisabling);
        let l1_shaped = FaultMap::generate(&CacheGeometry::ispass2010_l1(), 0.001, 0);
        assert_eq!(
            CacheHierarchy::with_all_fault_maps(cfg, None, None, Some(&l1_shaped)).unwrap_err(),
            DisableError::GeometryMismatch
        );
        assert!(!CacheHierarchy::repairable(cfg, None, None, Some(&l1_shaped)));
    }

    #[test]
    fn repairable_agrees_with_construction() {
        // Word-disabling on every cache at a pfail where some maps are
        // unrepairable: the check must answer exactly as construction does.
        let cfg = HierarchyConfig::ispass2010(DisablingScheme::WordDisabling, VoltageMode::Low)
            .with_l2_scheme(DisablingScheme::WordDisabling);
        let l1 = CacheGeometry::ispass2010_l1();
        let l2 = CacheGeometry::ispass2010_l2();
        let mut outcomes = [0usize; 2];
        for seed in 0..12 {
            let mi = FaultMap::generate(&l1, 0.003, 3 * seed);
            let md = FaultMap::generate(&l1, 0.003, 3 * seed + 1);
            let m2 = FaultMap::generate(&l2, 0.0005, 3 * seed + 2);
            let (i, d, l2_map) = (Some(&mi), Some(&md), Some(&m2));
            let built = CacheHierarchy::with_all_fault_maps(cfg, i, d, l2_map).is_ok();
            assert_eq!(CacheHierarchy::repairable(cfg, i, d, l2_map), built, "seed {seed}");
            outcomes[usize::from(built)] += 1;
        }
        assert!(outcomes.iter().all(|&n| n > 0), "both outcomes occur: {outcomes:?}");
    }

    #[test]
    fn batched_accesses_match_the_scalar_entry_point() {
        let cfg = HierarchyConfig::ispass2010(DisablingScheme::Baseline, VoltageMode::High)
            .with_victim_caches(VictimCacheConfig::ispass2010_10t());
        let mut scalar = CacheHierarchy::new(cfg);
        let mut batched = CacheHierarchy::new(cfg);
        let stream: Vec<(u64, bool)> = (0..5_000u64)
            .map(|i| ((i * 97) % (1 << 21), i % 4 == 0))
            .collect();
        let expected: Vec<AccessResult> =
            stream.iter().map(|&(a, w)| scalar.access_data(a, w)).collect();
        let mut got = Vec::new();
        for chunk in stream.chunks(7) {
            batched.access_data_batch(chunk, &mut got);
        }
        assert_eq!(got, expected);
        assert_eq!(batched.stats(), scalar.stats());

        // Instruction side too.
        let addrs: Vec<u64> = (0..2_000u64).map(|i| (i * 193) % (1 << 20)).collect();
        let expected: Vec<AccessResult> = addrs.iter().map(|&a| scalar.access_instr(a)).collect();
        let mut got = Vec::new();
        batched.access_instr_batch(&addrs, &mut got);
        assert_eq!(got, expected);
        assert_eq!(batched.stats(), scalar.stats());
    }

    #[test]
    fn zero_way_sets_fall_back_to_the_victim_cache() {
        // Disable every block, attach a victim cache: repeated accesses to the same
        // block should start hitting in the victim cache.
        let geom = CacheGeometry::ispass2010_l1();
        let cfg = HierarchyConfig::ispass2010(DisablingScheme::BlockDisabling, VoltageMode::Low)
            .with_victim_caches(VictimCacheConfig::ispass2010_10t());
        let all_faulty = FaultMap::generate(&geom, 1.0, 0);
        let mut h =
            CacheHierarchy::with_all_fault_maps(cfg, Some(&all_faulty), Some(&all_faulty), None)
                .unwrap();
        let first = h.access_data(0x40, false);
        assert_eq!(first.level, HitLevel::Memory);
        let second = h.access_data(0x40, false);
        assert_eq!(second.level, HitLevel::Victim);
    }
}
