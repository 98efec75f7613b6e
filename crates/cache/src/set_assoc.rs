//! Set-associative cache with true-LRU replacement and per-set way disabling.
//!
//! # Hot-path layout
//!
//! The cache is stored structure-of-arrays: one dense row of tags and one
//! `Vec<u8>` of recency ranks (indexed `set * associativity + way`), plus one packed
//! `SetMeta` record per set holding the `valid`, `dirty` and `usable` way
//! bitsets (bit `w` describes way `w`). Packing the three bitsets into one
//! 24-byte record means a lookup touches a single metadata cache line per set
//! instead of three scattered ones.
//!
//! Tags are stored in 32 bits while every tag the cache has held fits, as
//! the tag of every address below `2^(32 + offset + index bits)` does: an
//! 8-way set's tags then fill half a host cache line, and the 2 MB L2's tag
//! row takes 128 KB instead of 256 KB. The first fill of a wider tag widens
//! the whole row to 64 bits, so the stored tags are always exact.
//!
//! The scans themselves are *branchless*: the hit scan compares every tag in
//! the set with a fixed trip count and accumulates a match bitmask (no
//! data-dependent early exit for the branch predictor to miss), and an
//! eviction finds its victim by rank (see below) without a scan. The only
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
//! # Recency ranks
//!
//! Each way holds a `u8` recency rank, 0 for the most recently used way of
//! its set. A touch moves the way to rank 0 and moves every way ranked before
//! it one rank back, so each set's ranks stay a permutation of
//! `0..associativity`. A way becomes valid only through a fill, which touches
//! it, and nothing invalidates a way again. So the valid ways always hold
//! ranks `0..valid`: a fill into an invalid way moves every valid way one rank
//! back and puts the new block in front. The least recently used block is
//! therefore the way ranked `valid - 1`, the block a per-access timestamp
//! would pick, since live timestamps are distinct and ordered as the ranks
//! are. The order is exact, and with no access counter nothing can wrap.
//!
//! A rank is stored XORed with its way's index, so a new cache's zeroed rank
//! array is the initial ranking (way `w` at rank `w`) and costs no memory
//! until its sets are touched. For the 8-way caches of the paper a set's
//! eight ranks are read as one `u64`, so a touch and a victim lookup are a
//! few word operations each (SWAR). Debug builds check the permutation
//! invariant after every access.

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
fn match_mask<T: Copy + PartialEq>(tags: &[T], tag: T) -> u64 {
    if let Ok(row) = <&[T; 8]>::try_from(tags) {
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

/// The tag of each way, indexed `set * assoc + way`: 32 bits wide until a
/// tag that does not fit is stored (see the module docs).
#[derive(Debug, Clone)]
enum Tags {
    /// Every stored tag fits in 32 bits.
    Narrow(Vec<u32>),
    /// Some stored tag did not fit in 32 bits.
    Wide(Vec<u64>),
}

impl Tags {
    /// Bitmask of the ways in `row` whose tag equals `tag`. No narrow tag
    /// equals a tag wider than 32 bits. The wide paths stay out of line, so
    /// the narrow one is all the access path inlines.
    #[inline]
    fn matches(&self, row: std::ops::Range<usize>, tag: u64) -> u64 {
        match (self, u32::try_from(tag)) {
            (Self::Narrow(tags), Ok(tag)) => match_mask(&tags[row], tag),
            _ => self.matches_wide(row, tag),
        }
    }

    #[cold]
    #[inline(never)]
    fn matches_wide(&self, row: std::ops::Range<usize>, tag: u64) -> u64 {
        match self {
            Self::Narrow(_) => 0,
            Self::Wide(tags) => match_mask(&tags[row], tag),
        }
    }

    /// The tag stored at `index`.
    #[inline]
    fn get(&self, index: usize) -> u64 {
        match self {
            Self::Narrow(tags) => u64::from(tags[index]),
            Self::Wide(tags) => tags[index],
        }
    }

    /// Stores `tag` at `index`, widening every tag first if it does not fit
    /// in 32 bits.
    #[inline]
    fn set(&mut self, index: usize, tag: u64) {
        match (&mut *self, u32::try_from(tag)) {
            (Self::Narrow(tags), Ok(tag)) => tags[index] = tag,
            _ => self.set_wide(index, tag),
        }
    }

    #[cold]
    #[inline(never)]
    fn set_wide(&mut self, index: usize, tag: u64) {
        if let Self::Narrow(tags) = self {
            *self = Self::Wide(tags.iter().map(|&t| u64::from(t)).collect());
        }
        if let Self::Wide(tags) = self {
            tags[index] = tag;
        }
    }
}

/// Each byte of a `u64` set to `byte`.
const fn broadcast(byte: u8) -> u64 {
    u64::from_le_bytes([byte; 8])
}

/// The high bit of each byte of a `u64`.
const HIGH_BITS: u64 = broadcast(0x80);

/// Byte `w` holds `w`: the XOR that turns a stored 8-way row into its ranks
/// and back (see the module docs).
const WAY_BYTES: u64 = u64::from_le_bytes([0, 1, 2, 3, 4, 5, 6, 7]);

/// The ranks of a set whose stored row is `stored`, way by way.
fn decoded(stored: &[u8]) -> impl Iterator<Item = u8> + '_ {
    stored.iter().zip(0u8..).map(|(&byte, way)| byte ^ way)
}

/// The eight ranks of an 8-way set as one word, byte `w` for way `w`.
#[inline(always)]
fn packed(stored: &[u8]) -> Option<u64> {
    <[u8; 8]>::try_from(stored)
        .ok()
        .map(|bytes| u64::from_le_bytes(bytes) ^ WAY_BYTES)
}

/// Makes `way` the most recently used way of the set whose stored ranks are
/// `stored`: it moves to rank 0 and every way ranked before it moves one
/// rank back. The 8-way case updates all eight ranks in one word: each rank
/// `q` is below 8, so the byte-wise difference `0x7f + r - q` never borrows,
/// and its high bit is set exactly where `q < r`.
#[inline]
fn touch(stored: &mut [u8], way: usize) {
    if let Some(word) = packed(stored) {
        let r = (word >> (way * 8)) & 0xff;
        let before = ((broadcast(0x7f) + r * broadcast(1) - word) & HIGH_BITS) >> 7;
        let word = (word + before) & !(0xff << (way * 8));
        stored.copy_from_slice(&(word ^ WAY_BYTES).to_le_bytes());
        return;
    }
    let r = decoded(stored).nth(way).unwrap_or(0);
    for (byte, w) in stored.iter_mut().zip(0u8..) {
        let rank = *byte ^ w;
        let rank = match rank.cmp(&r) {
            std::cmp::Ordering::Less => rank + 1,
            std::cmp::Ordering::Equal => 0,
            std::cmp::Ordering::Greater => rank,
        };
        *byte = rank ^ w;
    }
}

/// The way holding rank `rank` in a set whose ranks are a permutation. The
/// 8-way case XORs the rank into every byte and takes the lowest zero byte:
/// the zero-byte test can flag a byte only at or above a true zero, and the
/// permutation has exactly one.
#[inline]
fn way_ranked(stored: &[u8], rank: u32) -> usize {
    if let Some(word) = packed(stored) {
        // A rank below 8 fills each byte without carrying into the next.
        let x = word ^ (u64::from(rank) * broadcast(1));
        let zero = x.wrapping_sub(broadcast(1)) & !x & HIGH_BITS;
        return zero.trailing_zeros() as usize / 8;
    }
    decoded(stored)
        .position(|r| u32::from(r) == rank)
        .unwrap_or(0)
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
    tags: Tags,
    /// Recency rank of each way, 0 for the most recent, XORed with the way's
    /// index (see the module docs): each set's ranks are a permutation of
    /// `0..assoc`, and the valid ways hold `0..valid`.
    ranks: Vec<u8>,
    /// Packed per-set `valid`/`dirty`/`usable` bitsets.
    meta: Vec<SetMeta>,
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
            tags: Tags::Narrow(vec![0; sets * assoc]),
            ranks: vec![0; sets * assoc],
            meta: vec![
                SetMeta {
                    valid: 0,
                    dirty: 0,
                    usable: all_ways,
                };
                sets
            ],
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
        self.tags.matches(base..base + self.assoc, tag) & meta.valid & meta.usable != 0
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
        let base = set * self.assoc;
        let meta = self.meta[set];

        // Hit scan: only ways that are both valid and usable can match. Live
        // tags are unique within a set (a block is allocated at most once), so
        // the lowest matching bit is the hit way.
        let live = meta.valid & meta.usable;
        let hit = self.tags.matches(base..base + self.assoc, tag) & live;
        if hit != 0 {
            touch(&mut self.ranks[base..base + self.assoc], hit.trailing_zeros() as usize);
            // Fold the store's dirty bit in without a branch: the mask is
            // all-ones for a write, zero otherwise.
            self.meta[set].dirty |= hit & u64::from(write).wrapping_neg();
            self.stats.hits += 1;
            #[cfg(debug_assertions)]
            self.debug_check_set(set);
            return AccessOutcome {
                hit: true,
                evicted: None,
                evicted_dirty: false,
                bypassed: false,
            };
        }
        self.stats.misses += 1;

        // Fill: prefer the lowest-index invalid usable way, otherwise evict the
        // least recently used valid way, the one ranked last among the valid
        // ones. A set with no usable way bypasses the fill.
        let free = meta.usable & !meta.valid;
        let victim = if free != 0 {
            free.trailing_zeros() as usize
        } else if live != 0 {
            way_ranked(&self.ranks[base..base + self.assoc], live.count_ones() - 1)
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
            Some(self.geometry.block_address(self.tags.get(base + victim), set as u64))
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
        self.tags.set(base + victim, tag);
        touch(&mut self.ranks[base..base + self.assoc], victim);
        if was_valid {
            self.stats.evictions += 1;
        }
        #[cfg(debug_assertions)]
        self.debug_check_set(set);
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
        let hit = self.tags.matches(base..base + self.assoc, tag) & meta.valid & meta.usable;
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

    /// The recency ranks of `set`, way by way.
    #[cfg(any(test, debug_assertions))]
    fn set_ranks(&self, set: usize) -> impl Iterator<Item = u8> + '_ {
        decoded(&self.ranks[set * self.assoc..(set + 1) * self.assoc])
    }

    /// The rank invariant of `set`, checked in debug builds after every
    /// access: its ranks are a permutation of `0..assoc`, and its valid ways,
    /// all usable, hold ranks `0..valid`.
    #[cfg(debug_assertions)]
    fn debug_check_set(&self, set: usize) {
        let meta = self.meta[set];
        let valid = meta.valid.count_ones();
        let mut seen = 0u64;
        for (way, rank) in self.set_ranks(set).enumerate() {
            seen |= 1 << rank;
            debug_assert_eq!(
                meta.valid >> way & 1 == 1,
                u32::from(rank) < valid,
                "set {set}: way {way} has rank {rank}, but the valid ways must hold 0..{valid}"
            );
        }
        debug_assert_eq!(seen.count_ones() as usize, self.assoc, "set {set}: repeated ranks");
        debug_assert_eq!(meta.valid & !meta.usable, 0, "set {set}: a valid way is not usable");
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
    fn ranks_stay_a_permutation_with_the_valid_ways_in_front() {
        // The 8-way SWAR path and the generic path (2 and 16 ways), each with
        // some ways disabled, under a random stream of accesses and inserts.
        for assoc in [2u64, 8, 16] {
            let geom = CacheGeometry::new(16 * assoc * 64, 64, assoc, 24).unwrap();
            let mask = WayDisableMask::from_fn(&geom, |set, way| (set * 7 + way * 3) % 5 == 0);
            let mut c = SetAssocCache::with_disabled_ways(geom, &mask);
            let mut x = 0x9E37_79B9_7F4A_7C15u64;
            for i in 0..20_000 {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                let a = (x % (64 * geom.blocks())) * 8;
                if i % 5 == 0 {
                    c.insert(a, x & 1 == 1);
                } else {
                    c.access(a, x & 2 == 2);
                }
            }
            for set in 0..c.meta.len() {
                let ranks: Vec<u8> = c.set_ranks(set).collect();
                let mut sorted = ranks.clone();
                sorted.sort_unstable();
                assert!(sorted.iter().copied().eq(0..assoc as u8), "{assoc} ways, set {set}: {ranks:?}");
                let meta = c.meta[set];
                assert_eq!(meta.valid & !meta.usable, 0);
                let valid = meta.valid.count_ones();
                for (way, &rank) in ranks.iter().enumerate() {
                    assert_eq!(meta.valid >> way & 1 == 1, u32::from(rank) < valid, "set {set}: {ranks:?}");
                }
            }
        }
    }

    #[test]
    fn a_set_with_one_usable_way_evicts_it() {
        // Set 0 keeps only way 1: each new block of the set evicts the last.
        let geom = CacheGeometry::new(512, 64, 2, 24).unwrap();
        let mask = WayDisableMask::from_fn(&geom, |set, way| !(set == 0 && way == 1));
        let mut c = SetAssocCache::with_disabled_ways(geom, &mask);
        let a = addr(0, 1);
        let b = addr(0, 2);
        assert!(!c.access(a, true).hit);
        let out = c.access(b, false);
        assert_eq!(out.evicted, Some(a), "the only usable way is the victim");
        assert!(out.evicted_dirty);
        assert!(!out.bypassed);
        assert!(c.access(b, false).hit);
        assert_eq!(c.access(a, false).evicted, Some(b));
        assert_eq!(c.resident_blocks(), 1);
    }

    #[test]
    fn a_tag_wider_than_32_bits_widens_the_row_and_keeps_every_block() {
        // 4 sets of 2 ways: the tag is the address above bit 8, so `narrow`
        // has a 32-bit tag and `wide` a 33-bit one, in the same set.
        let mut c = small_cache();
        let narrow = addr(1, u64::from(u32::MAX));
        let wide = addr(1, 1 << 32);
        assert!(!c.probe(wide));
        assert!(!c.access(narrow, true).hit);
        assert!(matches!(c.tags, Tags::Narrow(_)));
        assert!(!c.access(wide, false).hit);
        assert!(matches!(c.tags, Tags::Wide(_)));
        assert!(c.access(narrow, false).hit, "the narrow block survives the widening");
        assert!(c.access(wide, false).hit);
        let out = c.access(addr(1, 7), false);
        assert_eq!(out.evicted, Some(narrow), "the LRU block, with its full address");
        assert!(out.evicted_dirty);
        assert!(c.mark_dirty(wide));
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
