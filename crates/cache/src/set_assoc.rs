//! Set-associative cache with true-LRU replacement and per-set way disabling.
//!
//! # Hot-path layout
//!
//! The cache is stored structure-of-arrays: one dense `Vec<u64>` of tags and one
//! of LRU timestamps (indexed `set * associativity + way`), plus one packed
//! [`SetMeta`] record per set holding the `valid`, `dirty` and `usable` way
//! bitsets (bit `w` describes way `w`). Packing the three bitsets into one
//! 24-byte record means a lookup touches a single metadata cache line per set
//! instead of three scattered ones.
//!
//! The scans themselves are *branchless*: the hit scan compares every tag in
//! the set with a fixed trip count and accumulates a match bitmask (no
//! data-dependent early exit for the branch predictor to miss), and victim
//! selection reduces the LRU row with a conditional-move minimum where
//! non-live ways carry a key above any possible clock value. The only
//! unpredictable branch left on the hot path is the hit/miss decision itself.
//!
//! Address decomposition (set index, tag) is done with shift/mask constants
//! cached at construction, so the access path never re-derives them from the
//! geometry (whose generic accessors divide).
//!
//! The `usable` bitsets are *precomputed at install time*: a repair scheme's
//! per-set decision ([`WayDisableMask`]) is folded into them once in
//! [`SetAssocCache::with_disabled_ways`], so `access()` never consults the
//! scheme or the mask again.
//!
//! # LRU clock width
//!
//! The recency clock is a `u64` advanced on every access. A `u32` clock (the
//! historical layout) wraps after 2^32 accesses, at which point every
//! `lru < lru` comparison inverts and the MRU block becomes the eviction
//! victim; a `u64` clock cannot wrap on any realistic campaign (2^64 accesses
//! at one access per nanosecond is ~585 years). Invalid ways are never
//! compared — victim selection keys them above every live way — so no
//! sentinel LRU value exists to collide with a live clock.

use vccmin_fault::CacheGeometry;

use crate::repair::WayDisableMask;
use crate::stats::CacheStats;

/// Outcome of a single cache lookup (possibly with allocation).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessOutcome {
    /// Whether the lookup hit.
    pub hit: bool,
    /// Block-aligned address of a block evicted to make room for a fill, if any.
    pub evicted: Option<u64>,
    /// Whether the evicted block was dirty (needs write-back).
    pub evicted_dirty: bool,
    /// Whether the fill could not be allocated (no usable way in the set).
    pub bypassed: bool,
}

/// Per-set way bitsets, packed so one lookup touches one metadata record.
/// Bit `w` of each field describes way `w`.
#[derive(Debug, Clone, Copy)]
struct SetMeta {
    /// Ways currently holding a block.
    valid: u64,
    /// Ways holding a modified block (meaningful where `valid` is set).
    dirty: u64,
    /// Ways the installed repair scheme left usable; fixed at construction.
    usable: u64,
}

/// Bitmask of the ways in `tags` whose tag equals `tag`. Fixed trip count —
/// no early exit — so the loop compiles to straight-line compare/or code.
/// The 8-way case (every ISPASS-2010 cache) goes through a compile-time-sized
/// array so the compiler fully unrolls and vectorizes the compare.
#[inline]
fn match_mask(tags: &[u64], tag: u64) -> u64 {
    if let Ok(row) = <&[u64; 8]>::try_from(tags) {
        let mut mask = 0u64;
        for (w, &t) in row.iter().enumerate() {
            mask |= u64::from(t == tag) << w;
        }
        return mask;
    }
    let mut mask = 0u64;
    for (w, &t) in tags.iter().enumerate() {
        mask |= u64::from(t == tag) << w;
    }
    mask
}

/// Index of the way with the smallest key, where a way's key is its LRU stamp
/// plus bit 64 if the way is not in `live` — so non-live ways never win while
/// live LRU order is preserved exactly. Strict `<` keeps the lowest index on
/// ties, matching an ascending scan. Branchless (conditional-move minimum);
/// the 8-way case unrolls through a compile-time-sized array.
#[inline]
fn min_live_lru(lru_row: &[u64], live: u64) -> usize {
    #[inline(always)]
    fn key(live: u64, stamp: u64, w: usize) -> (u128, usize) {
        let not_live = ((live >> w) & 1) ^ 1;
        ((u128::from(not_live) << 64) | u128::from(stamp), w)
    }
    // Prefer the left operand on equal keys: the tree then yields the
    // *leftmost* minimum, identical to an ascending strict-`<` scan.
    #[inline(always)]
    fn min2(a: (u128, usize), b: (u128, usize)) -> (u128, usize) {
        if b.0 < a.0 { b } else { a }
    }
    if let Ok(row) = <&[u64; 8]>::try_from(lru_row) {
        // Pairwise tree: three dependent levels instead of a serial
        // eight-deep conditional-move chain.
        let m01 = min2(key(live, row[0], 0), key(live, row[1], 1));
        let m23 = min2(key(live, row[2], 2), key(live, row[3], 3));
        let m45 = min2(key(live, row[4], 4), key(live, row[5], 5));
        let m67 = min2(key(live, row[6], 6), key(live, row[7], 7));
        return min2(min2(m01, m23), min2(m45, m67)).1;
    }
    let mut best = (u128::MAX, 0usize);
    for (w, &stamp) in lru_row.iter().enumerate() {
        best = min2(best, key(live, stamp, w));
    }
    best.1
}

/// A set-associative cache with true-LRU replacement.
///
/// The cache is a *tag store only* — no data is held, since the simulator only needs
/// hit/miss behavior and evictions. Ways can be marked unusable per the block-disable
/// scheme: unusable ways never hit and are never allocated. See the module docs for
/// the structure-of-arrays layout.
#[derive(Debug, Clone)]
pub struct SetAssocCache {
    geometry: CacheGeometry,
    /// Cached `geometry.associativity()` as a row stride for the dense vectors.
    assoc: usize,
    /// Cached `geometry.offset_bits()`: block-offset shift for set extraction.
    offset_bits: u32,
    /// Cached `offset_bits + index_bits`: the tag shift.
    tag_shift: u32,
    /// Cached `sets - 1`: the set-index mask (sets are a power of two).
    set_mask: u64,
    /// Tag of each way, indexed `set * assoc + way`. Only meaningful where the
    /// set's `valid` bit is set.
    tags: Vec<u64>,
    /// LRU timestamp of each way (larger = more recent). Only meaningful where
    /// the set's `valid` bit is set; never compared otherwise.
    lru: Vec<u64>,
    /// Packed per-set `valid`/`dirty`/`usable` bitsets.
    meta: Vec<SetMeta>,
    lru_clock: u64,
    stats: CacheStats,
}

impl SetAssocCache {
    /// The per-set bitset layout bounds the associativity at 64 ways.
    pub const MAX_ASSOCIATIVITY: u64 = 64;

    /// Creates a cache with every way usable (the high-voltage configuration).
    ///
    /// # Panics
    ///
    /// Panics if the associativity exceeds [`SetAssocCache::MAX_ASSOCIATIVITY`].
    #[must_use]
    pub fn new(geometry: CacheGeometry) -> Self {
        let assoc = geometry.associativity();
        assert!(
            assoc <= Self::MAX_ASSOCIATIVITY,
            "per-set bitsets hold at most {} ways, got {assoc}",
            Self::MAX_ASSOCIATIVITY
        );
        let sets = geometry.sets() as usize;
        let assoc = assoc as usize;
        let all_ways = if assoc == 64 { u64::MAX } else { (1u64 << assoc) - 1 };
        Self {
            assoc,
            offset_bits: geometry.offset_bits(),
            tag_shift: geometry.offset_bits() + geometry.index_bits(),
            set_mask: geometry.sets() - 1,
            tags: vec![0; sets * assoc],
            lru: vec![0; sets * assoc],
            meta: vec![
                SetMeta {
                    valid: 0,
                    dirty: 0,
                    usable: all_ways,
                };
                sets
            ],
            lru_clock: 0,
            stats: CacheStats::default(),
            geometry,
        }
    }

    /// Creates a cache with the ways of `mask` disabled — the organization any
    /// [`RepairScheme`](crate::repair::RepairScheme) resolves to at low voltage.
    ///
    /// This is the repair-scheme install point: the mask's per-set decisions are
    /// folded into the dense per-set `usable` bitsets here, once, so the access
    /// path never consults the scheme or the mask again.
    ///
    /// # Panics
    ///
    /// Panics if the mask was built for a different geometry.
    #[must_use]
    pub fn with_disabled_ways(geometry: CacheGeometry, mask: &WayDisableMask) -> Self {
        assert!(
            mask.sets() == geometry.sets() && mask.associativity() == geometry.associativity(),
            "disable mask shape must match the cache geometry"
        );
        let mut cache = Self::new(geometry);
        for set in 0..geometry.sets() {
            let mut usable = cache.meta[set as usize].usable;
            for way in 0..geometry.associativity() {
                if mask.is_disabled(set, way) {
                    usable &= !(1u64 << way);
                }
            }
            cache.meta[set as usize].usable = usable;
        }
        cache
    }

    /// The cache geometry.
    #[must_use]
    pub fn geometry(&self) -> &CacheGeometry {
        &self.geometry
    }

    /// Access statistics accumulated so far.
    #[must_use]
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// Resets the access statistics (contents are preserved).
    pub fn reset_stats(&mut self) {
        self.stats = CacheStats::default();
    }

    /// Advances the LRU clock to at least `clock` without touching any block.
    ///
    /// Test hook for long-horizon regression tests (e.g. positioning the clock
    /// just below `u32::MAX` to show where a 32-bit clock would invert its LRU
    /// order); the clock only moves forward, so recency stays monotonic.
    pub fn fast_forward_lru_clock(&mut self, clock: u64) {
        self.lru_clock = self.lru_clock.max(clock);
    }

    /// Set index and tag of `addr`, from the cached shift/mask constants.
    #[inline]
    fn decompose(&self, addr: u64) -> (usize, u64) {
        (
            ((addr >> self.offset_bits) & self.set_mask) as usize,
            addr >> self.tag_shift,
        )
    }

    /// Number of usable ways in `set`.
    #[must_use]
    pub fn usable_ways(&self, set: u64) -> u64 {
        u64::from(self.meta[set as usize].usable.count_ones())
    }

    /// Total number of usable blocks across all sets.
    #[must_use]
    pub fn usable_blocks(&self) -> u64 {
        self.meta
            .iter()
            .map(|m| u64::from(m.usable.count_ones()))
            .sum()
    }

    /// Whether the block containing `addr` is currently present (no LRU update).
    #[must_use]
    pub fn probe(&self, addr: u64) -> bool {
        let (set, tag) = self.decompose(addr);
        let base = set * self.assoc;
        let meta = self.meta[set];
        match_mask(&self.tags[base..base + self.assoc], tag) & meta.valid & meta.usable != 0
    }

    /// Performs a lookup for `addr`, allocating the block on a miss.
    ///
    /// `write` marks the block dirty on a hit or on the fill. Returns whether the
    /// access hit, and the address of any block evicted by the fill. When the set has
    /// no usable ways the fill is *bypassed* — the block is simply not cached.
    #[inline]
    pub fn access(&mut self, addr: u64, write: bool) -> AccessOutcome {
        let (set, tag) = self.decompose(addr);
        self.stats.accesses += 1;
        self.lru_clock = self.lru_clock.wrapping_add(1);
        let clock = self.lru_clock;
        let base = set * self.assoc;
        let meta = self.meta[set];

        // Hit scan: only ways that are both valid and usable can match. Live
        // tags are unique within a set (a block is allocated at most once), so
        // the lowest matching bit is the hit way.
        let live = meta.valid & meta.usable;
        let hit = match_mask(&self.tags[base..base + self.assoc], tag) & live;
        if hit != 0 {
            let w = hit.trailing_zeros() as usize;
            self.lru[base + w] = clock;
            // Fold the store's dirty bit in without a branch: the mask is
            // all-ones for a write, zero otherwise.
            self.meta[set].dirty |= hit & u64::from(write).wrapping_neg();
            self.stats.hits += 1;
            return AccessOutcome {
                hit: true,
                evicted: None,
                evicted_dirty: false,
                bypassed: false,
            };
        }
        self.stats.misses += 1;

        // Fill: prefer the lowest-index invalid usable way, otherwise evict the
        // LRU valid usable way (lowest index on ties, matching an ascending
        // strict-less scan). A set with no usable way bypasses the fill.
        let free = meta.usable & !meta.valid;
        let victim = if free != 0 {
            free.trailing_zeros() as usize
        } else if live != 0 {
            min_live_lru(&self.lru[base..base + self.assoc], live)
        } else {
            self.stats.unallocated_fills += 1;
            return AccessOutcome {
                hit: false,
                evicted: None,
                evicted_dirty: false,
                bypassed: true,
            };
        };

        let bit = 1u64 << victim;
        let was_valid = meta.valid & bit != 0;
        let evicted = if was_valid {
            Some(self.geometry.block_address(self.tags[base + victim], set as u64))
        } else {
            None
        };
        let evicted_dirty = was_valid && meta.dirty & bit != 0;
        let slot = &mut self.meta[set];
        slot.valid |= bit;
        if write {
            slot.dirty |= bit;
        } else {
            slot.dirty &= !bit;
        }
        self.tags[base + victim] = tag;
        self.lru[base + victim] = clock;
        if was_valid {
            self.stats.evictions += 1;
        }
        AccessOutcome {
            hit: false,
            evicted,
            evicted_dirty,
            bypassed: false,
        }
    }

    /// Inserts a block without counting an access (used when a victim-cache hit moves
    /// a block back into the L1, or when a fill returns from L2/memory).
    ///
    /// The returned outcome reports any evicted block and whether the insertion was
    /// bypassed because the target set has no usable way.
    pub fn insert(&mut self, addr: u64, dirty: bool) -> AccessOutcome {
        let before = self.stats;
        let outcome = self.access(addr, dirty);
        // `access` counted this as a miss; undo the accounting so statistics only
        // reflect demand lookups.
        self.stats = before;
        outcome
    }

    /// Marks the block containing `addr` dirty if it is resident, returning whether
    /// it was. This is the write-back entry point used when a dirty block drains
    /// from an upper level into this cache: it touches neither the LRU state nor
    /// the access statistics, so write-back traffic never perturbs the demand
    /// hit/miss stream.
    pub fn mark_dirty(&mut self, addr: u64) -> bool {
        let (set, tag) = self.decompose(addr);
        let base = set * self.assoc;
        let meta = self.meta[set];
        let hit = match_mask(&self.tags[base..base + self.assoc], tag) & meta.valid & meta.usable;
        // Live tags are unique, so `hit` has at most one bit; keep only the
        // lowest anyway to mirror an ascending scan exactly.
        self.meta[set].dirty |= hit & hit.wrapping_neg();
        hit != 0
    }

    /// Number of valid blocks currently resident.
    #[must_use]
    pub fn resident_blocks(&self) -> u64 {
        self.meta
            .iter()
            .map(|m| u64::from(m.valid.count_ones()))
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vccmin_fault::CacheGeometry;

    fn small_cache() -> SetAssocCache {
        // 4 sets, 2 ways, 64B blocks.
        SetAssocCache::new(CacheGeometry::new(512, 64, 2, 24).unwrap())
    }

    fn addr(set: u64, tag: u64) -> u64 {
        (tag << (6 + 2)) | (set << 6)
    }

    #[test]
    fn first_access_misses_then_hits() {
        let mut c = small_cache();
        assert!(!c.access(0x1000, false).hit);
        assert!(c.access(0x1000, false).hit);
        assert!(c.access(0x1004, false).hit, "same block, different offset");
        assert_eq!(c.stats().accesses, 3);
        assert_eq!(c.stats().hits, 2);
        assert_eq!(c.stats().misses, 1);
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let mut c = small_cache();
        let a = addr(0, 1);
        let b = addr(0, 2);
        let d = addr(0, 3);
        c.access(a, false);
        c.access(b, false);
        // Touch `a` so `b` becomes LRU.
        c.access(a, false);
        let out = c.access(d, false);
        assert_eq!(out.evicted, Some(b));
        // `a` must still hit, `b` must miss.
        assert!(c.access(a, false).hit);
        assert!(!c.access(b, false).hit);
    }

    #[test]
    fn writes_mark_blocks_dirty_and_eviction_reports_it() {
        let mut c = small_cache();
        let a = addr(1, 1);
        let b = addr(1, 2);
        let d = addr(1, 3);
        c.access(a, true);
        c.access(b, false);
        let out = c.access(d, false);
        assert_eq!(out.evicted, Some(a));
        assert!(out.evicted_dirty);
    }

    /// The block-disabling organization of `map`: every faulty block disabled.
    fn block_disabled(map: &vccmin_fault::FaultMap) -> SetAssocCache {
        use crate::repair::{BlockDisablingScheme, RepairScheme};
        let org = BlockDisablingScheme.repair(map).unwrap();
        SetAssocCache::with_disabled_ways(org.geometry, org.disabled.as_ref().unwrap())
    }

    #[test]
    fn disabled_ways_are_never_used() {
        let geom = CacheGeometry::ispass2010_l1();
        let map = vccmin_fault::FaultMap::generate(&geom, 0.05, 3);
        let c = block_disabled(&map);
        assert_eq!(c.usable_blocks(), map.fault_free_blocks());
        for set in 0..geom.sets() {
            assert_eq!(c.usable_ways(set), map.usable_ways_in_set(set));
        }
    }

    #[test]
    fn zero_usable_ways_bypasses_fills() {
        // Disable everything by generating a map at pfail=1.
        let geom = CacheGeometry::new(512, 64, 2, 24).unwrap();
        let map = vccmin_fault::FaultMap::generate(&geom, 1.0, 0);
        let mut c = block_disabled(&map);
        let out = c.access(0x40, false);
        assert!(!out.hit);
        assert!(out.bypassed);
        assert!(!c.access(0x40, false).hit, "bypassed block is not cached");
        assert_eq!(c.stats().unallocated_fills, 2);
    }

    #[test]
    fn probe_does_not_change_lru_or_stats() {
        let mut c = small_cache();
        c.access(0x1000, false);
        let stats_before = *c.stats();
        assert!(c.probe(0x1000));
        assert!(!c.probe(0x2000));
        assert_eq!(c.stats(), &stats_before);
    }

    #[test]
    fn insert_does_not_count_in_stats() {
        let mut c = small_cache();
        let out = c.insert(0x1000, false);
        assert!(!out.bypassed);
        assert_eq!(out.evicted, None);
        assert_eq!(c.stats().accesses, 0);
        assert!(c.probe(0x1000));
        assert_eq!(c.resident_blocks(), 1);
    }

    #[test]
    fn mark_dirty_flips_only_the_dirty_bit() {
        let mut c = small_cache();
        let a = addr(0, 1);
        let b = addr(0, 2);
        c.access(a, false);
        c.access(b, false);
        let stats_before = *c.stats();
        assert!(c.mark_dirty(a));
        assert!(!c.mark_dirty(addr(0, 9)), "absent blocks cannot be marked");
        assert_eq!(c.stats(), &stats_before, "write-backs never count as accesses");
        // `a` was *not* LRU-refreshed by mark_dirty: filling the set still evicts it.
        let out = c.access(addr(0, 3), false);
        assert_eq!(out.evicted, Some(a));
        assert!(out.evicted_dirty, "the write-back made the block dirty");
    }

    #[test]
    fn hits_plus_misses_equals_accesses() {
        let mut c = SetAssocCache::new(CacheGeometry::ispass2010_l1());
        for i in 0..10_000u64 {
            c.access((i * 97) % 65_536, i % 3 == 0);
        }
        let s = c.stats();
        assert_eq!(s.hits + s.misses, s.accesses);
        assert_eq!(s.accesses, 10_000);
    }

    #[test]
    fn full_capacity_working_set_fits() {
        // A working set exactly equal to the cache capacity must fully hit on the
        // second pass (true LRU, power-of-two strides).
        let geom = CacheGeometry::new(4096, 64, 4, 24).unwrap();
        let mut c = SetAssocCache::new(geom);
        let blocks: Vec<u64> = (0..geom.blocks()).map(|i| i * geom.block_bytes()).collect();
        for &b in &blocks {
            c.access(b, false);
        }
        for &b in &blocks {
            assert!(c.access(b, false).hit, "block {b:#x} should hit on 2nd pass");
        }
    }

    #[test]
    fn oversized_working_set_thrashes() {
        let geom = CacheGeometry::new(4096, 64, 4, 24).unwrap();
        let mut c = SetAssocCache::new(geom);
        // Working set twice the cache size, accessed cyclically: with true LRU every
        // access misses.
        let blocks: Vec<u64> = (0..2 * geom.blocks()).map(|i| i * geom.block_bytes()).collect();
        for _ in 0..3 {
            for &b in &blocks {
                c.access(b, false);
            }
        }
        assert_eq!(c.stats().hits, 0);
    }

    #[test]
    fn lru_survives_the_u32_clock_horizon() {
        // Position the clock so the next two accesses straddle 2^32. A 32-bit
        // clock would wrap here and invert the recency order; the u64 clock
        // keeps it monotonic, so eviction still picks the true LRU block.
        let mut c = small_cache();
        c.fast_forward_lru_clock(u64::from(u32::MAX) - 2);
        let a = addr(0, 1);
        let b = addr(0, 2);
        c.access(a, false); // lru(a) = 2^32 - 2
        c.access(b, false); // lru(b) = 2^32 - 1
        c.access(a, false); // lru(a) = 2^32 (would be 0 under a u32 clock)
        let out = c.access(addr(0, 3), false);
        assert_eq!(out.evicted, Some(b), "b is the true LRU block across the horizon");
        assert!(c.access(a, false).hit);
    }

    #[test]
    fn fast_forward_never_moves_the_clock_backwards() {
        let mut c = small_cache();
        c.access(0x1000, false);
        c.fast_forward_lru_clock(0);
        // The clock stayed at 1, so recency ordering is unchanged.
        assert!(c.access(0x1000, false).hit);
    }

    #[test]
    fn eviction_picks_a_live_way_even_at_the_clock_ceiling() {
        // A lone live way whose LRU stamp is u64::MAX (the largest possible
        // clock value) must still be the victim over the set's disabled ways:
        // the victim scan keys non-live ways strictly above every clock value.
        let geom = CacheGeometry::new(512, 64, 2, 24).unwrap();
        let mask = WayDisableMask::from_fn(&geom, |set, way| !(set == 0 && way == 1));
        let mut c = SetAssocCache::with_disabled_ways(geom, &mask);
        c.fast_forward_lru_clock(u64::MAX - 1);
        let a = addr(0, 1);
        let b = addr(0, 2);
        assert!(!c.access(a, false).hit); // fills way 1, lru = u64::MAX
        let out = c.access(b, false);
        assert_eq!(out.evicted, Some(a), "the only live way is the victim");
        assert!(!out.bypassed);
    }

    #[test]
    fn max_associativity_bitsets_work_at_64_ways() {
        // 64 ways in one set exercises the full-width bitset (shift-by-63 and
        // the `(1 << 64)` overflow guard in the all-ways mask).
        let geom = CacheGeometry::new(64 * 64, 64, 64, 24).unwrap();
        let mut c = SetAssocCache::new(geom);
        for i in 0..64u64 {
            assert!(!c.access(addr(0, i + 1) * 64, false).hit);
        }
        assert_eq!(c.resident_blocks(), 64);
        // The 65th distinct block evicts the least recently used (the first).
        let out = c.access(addr(0, 65) * 64, false);
        assert!(out.evicted.is_some());
        assert_eq!(c.stats().evictions, 1);
    }
}
