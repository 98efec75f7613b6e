//! Set-associative cache with true-LRU replacement and per-set way disabling.
//!
//! # Hot-path layout
//!
//! The cache is stored structure-of-arrays: one dense row of tags, indexed
//! `set * associativity + way`, and the state of each set: its `valid`,
//! `dirty` and `usable` way bitsets (bit `w` of a bitset describes way `w`)
//! and the recency rank of each of its ways. A set of at most 8 ways, which
//! covers every array of the paper, keeps all of it in one `u64`: the three
//! bitsets are 8-bit fields of the low half and the ranks are 4-bit fields of
//! the high half, 56 of the 64 bits. So a lookup reads one word of state, and
//! its replacement update writes the same word. Wider sets keep three bitset
//! words per set and a rank byte per way. The layout is chosen once, at
//! construction; each access branches on it, predictably.
//!
//! Tags are stored in the narrowest of three widths that holds every tag the
//! cache has held: 16, 32 or 64 bits. The first fill of a tag that does not
//! fit widens the whole row a step at a time (16 to 32 to 64 bits), so the
//! stored tags are always exact. The 2 MB, 8-way L2 has 4,096 sets, so any
//! 32-bit address gives it a tag of at most 14 bits. A 32 KB L1 keeps 16-bit
//! tags below address `2^28`; the synthetic hot region starts there, and the
//! 32-bit row it widens to costs the L1 1 KB more.
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
//! [`SetAssocCache::with_disabled_ways`], one AND per set, so `access()` never
//! consults the scheme or the mask again.
//!
//! # Footprint
//!
//! A new 2 MB, 8-way L2 holds 96 KiB: 64 KiB of 16-bit tags and 32 KiB of
//! state words, ranks included. The size matters because a scheme campaign
//! keeps one hierarchy per cell live while several cells share a pass over
//! their workload's trace (`JOBS_PER_TRACE_PASS` in `vccmin-experiments`).
//! Four such L2s take 384 KiB, what three took with a rank byte per way
//! beside the state words, so four cells share a pass at the peak memory of
//! three, and more of each store stays in the host's caches.
//!
//! # Recency ranks
//!
//! Each way holds a recency rank, 0 for the most recently used way of its
//! set. A touch moves the way to rank 0 and moves every way ranked before it
//! one rank back, so each set's ranks stay a permutation of
//! `0..associativity`. A way becomes valid only through a fill, which touches
//! it, and nothing invalidates a way again. So the valid ways always hold
//! ranks `0..valid`: a fill into an invalid way moves every valid way one rank
//! back and puts the new block in front. The least recently used block is
//! therefore the way ranked `valid - 1`, the block a per-access timestamp
//! would pick, since live timestamps are distinct and ordered as the ranks
//! are. The order is exact, and with no access counter nothing can wrap.
//!
//! A packed set has eight rank fields whatever its associativity. The field
//! of each way past the associativity holds that way's index: it ranks after
//! every real way, so no touch moves it and no victim lookup searches for
//! it. The eight fields are therefore always a permutation of `0..8`, and a
//! touch and a victim lookup are a few word operations each on the state
//! word (SWAR). Debug builds check the permutation invariant after every
//! access.

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

/// The tag of each way, indexed `set * assoc + way`, in the narrowest width
/// that holds every tag stored so far (see the module docs).
#[derive(Debug, Clone)]
enum Tags {
    /// Every stored tag fits in 16 bits.
    Short(Vec<u16>),
    /// Every stored tag fits in 32 bits.
    Narrow(Vec<u32>),
    /// Some stored tag did not fit in 32 bits.
    Wide(Vec<u64>),
}

impl Tags {
    /// Bitmask of the ways in `row` whose tag equals `tag`. No stored tag
    /// equals a tag wider than the row. The 64-bit path stays out of line,
    /// so the 16- and 32-bit ones are all the access path inlines.
    #[inline]
    fn matches(&self, row: std::ops::Range<usize>, tag: u64) -> u64 {
        match self {
            Self::Short(tags) => u16::try_from(tag).map_or(0, |tag| match_mask(&tags[row], tag)),
            Self::Narrow(tags) => u32::try_from(tag).map_or(0, |tag| match_mask(&tags[row], tag)),
            Self::Wide(tags) => Self::matches_wide(&tags[row], tag),
        }
    }

    #[cold]
    #[inline(never)]
    fn matches_wide(tags: &[u64], tag: u64) -> u64 {
        match_mask(tags, tag)
    }

    /// The tag stored at `index`.
    #[inline]
    fn get(&self, index: usize) -> u64 {
        match self {
            Self::Short(tags) => u64::from(tags[index]),
            Self::Narrow(tags) => u64::from(tags[index]),
            Self::Wide(tags) => tags[index],
        }
    }

    /// Stores `tag` at `index` if it fits the row, returning whether it did.
    #[inline]
    fn store(&mut self, index: usize, tag: u64) -> bool {
        match self {
            Self::Short(tags) => u16::try_from(tag).map(|tag| tags[index] = tag).is_ok(),
            Self::Narrow(tags) => u32::try_from(tag).map(|tag| tags[index] = tag).is_ok(),
            Self::Wide(tags) => {
                tags[index] = tag;
                true
            }
        }
    }

    /// Stores `tag` at `index`, widening every tag first if it does not fit
    /// the row.
    #[inline]
    fn set(&mut self, index: usize, tag: u64) {
        if !self.store(index, tag) {
            self.widen_and_store(index, tag);
        }
    }

    /// Widens the row a step at a time (16 to 32 to 64 bits) until `tag`
    /// fits, then stores it.
    #[cold]
    #[inline(never)]
    fn widen_and_store(&mut self, index: usize, tag: u64) {
        while !self.store(index, tag) {
            *self = match self {
                Self::Short(tags) => Self::Narrow(tags.iter().map(|&t| u32::from(t)).collect()),
                Self::Narrow(tags) => Self::Wide(tags.iter().map(|&t| u64::from(t)).collect()),
                Self::Wide(_) => unreachable!("a 64-bit row stores every tag"),
            };
        }
    }
}

/// Field index of the ways holding a block, in [`SetStates`].
const VALID: usize = 0;
/// Field index of the ways holding a modified block (meaningful where
/// `valid` is set).
const DIRTY: usize = 1;
/// Field index of the ways the installed repair scheme left usable; fixed at
/// construction.
const USABLE: usize = 2;

/// The most ways a packed state word holds.
const PACKED_WAYS: usize = 8;
/// Bits from one bitset field of a packed state word to the next.
const FIELD_BITS: usize = 8;
/// The bits of one packed bitset field.
const FIELD_MASK: u64 = (1 << FIELD_BITS) - 1;
/// Bit of a packed state word where the rank fields start: way `w`'s rank is
/// the 4 bits from `RANK_SHIFT + 4 * w`.
const RANK_SHIFT: usize = 32;
/// The low bit of every rank field.
const RANK_ONES: u64 = 0x1111_1111 << RANK_SHIFT;
/// The high bit of every rank field.
const RANK_HIGHS: u64 = 0x8888_8888 << RANK_SHIFT;
/// Every rank field.
const RANK_FIELDS: u64 = 0xffff_ffff << RANK_SHIFT;
/// The rank fields of a new packed set: way `w` at rank `w`.
const NEW_RANKS: u64 = 0x7654_3210 << RANK_SHIFT;

/// `word`, a packed set's state, with `way` made the most recently used way:
/// it moves to rank 0 and every way ranked before it moves one rank back.
/// Each rank `q` and the touched way's rank `r` are below 8, so the
/// field-wise difference `7 + r - q` never borrows, and its high bit is set
/// exactly where `q < r`. The fields past the associativity rank after `r`,
/// so they stay as they are.
#[inline(always)]
fn touch_packed(word: u64, way: usize) -> u64 {
    let shift = RANK_SHIFT + 4 * way;
    let r = (word >> shift) & 0xf;
    let before = (((7 + r) * RANK_ONES - (word & RANK_FIELDS)) & RANK_HIGHS) >> 3;
    (word + before) & !(0xf << shift)
}

/// The way holding rank `rank`, below 8, in a packed set's state `word`. XOR
/// the rank into every field and take the lowest zero field: the zero-field
/// test can flag a field only at or above a true zero, and the eight fields,
/// a permutation, have exactly one.
#[inline(always)]
fn way_ranked_packed(word: u64, rank: u32) -> usize {
    // A rank below 8 fills each field without carrying into the next.
    let x = word ^ (u64::from(rank) * RANK_ONES);
    let zero = x.wrapping_sub(RANK_ONES) & !x & RANK_HIGHS;
    (zero.trailing_zeros() as usize - RANK_SHIFT) / 4
}

/// Makes `way` the most recently used way of a set whose ranks are `ranks`,
/// one byte per way.
fn touch_bytes(ranks: &mut [u8], way: usize) {
    let r = ranks[way];
    for rank in ranks.iter_mut() {
        if *rank < r {
            *rank += 1;
        }
    }
    ranks[way] = 0;
}

/// The way holding rank `rank` in a set whose ranks are `ranks`, one byte
/// per way.
fn way_ranked_bytes(ranks: &[u8], rank: u32) -> usize {
    ranks
        .iter()
        .position(|&r| u32::from(r) == rank)
        .unwrap_or(0)
}

/// The `valid`, `dirty` and `usable` way bitsets and the recency ranks of
/// every set (see the module docs). Each layout keeps a bitset field's bits
/// above the associativity clear.
#[derive(Debug, Clone)]
enum SetStates {
    /// One word per set, bitset field `f` at bit `f * FIELD_BITS` and the
    /// rank fields from bit `RANK_SHIFT`: at most 8 ways.
    Packed(Vec<u64>),
    /// Three bitset words per set, one per field, and a rank byte per way,
    /// indexed `set * assoc + way`.
    Wide {
        words: Vec<[u64; 3]>,
        ranks: Vec<u8>,
        assoc: usize,
    },
}

/// One set's three bitsets, read together.
#[derive(Debug, Clone, Copy)]
struct SetMeta {
    valid: u64,
    dirty: u64,
    usable: u64,
}

impl SetStates {
    /// `sets` sets of `assoc` ways, every way usable, none valid, and way
    /// `w` at rank `w`.
    fn new(sets: usize, assoc: usize) -> Self {
        let all_ways = u64::MAX >> (64 - assoc);
        if assoc <= PACKED_WAYS {
            Self::Packed(vec![all_ways << (USABLE * FIELD_BITS) | NEW_RANKS; sets])
        } else {
            Self::Wide {
                words: vec![[0, 0, all_ways]; sets],
                ranks: (0u8..).take(assoc).cycle().take(sets * assoc).collect(),
                assoc,
            }
        }
    }

    /// The number of sets.
    fn sets(&self) -> usize {
        match self {
            Self::Packed(words) => words.len(),
            Self::Wide { words, .. } => words.len(),
        }
    }

    /// Field `field` of `set`.
    #[inline(always)]
    fn get(&self, set: usize, field: usize) -> u64 {
        match self {
            Self::Packed(words) => (words[set] >> (field * FIELD_BITS)) & FIELD_MASK,
            Self::Wide { words, .. } => words[set][field],
        }
    }

    /// All three bitsets of `set`.
    #[inline(always)]
    fn meta(&self, set: usize) -> SetMeta {
        match self {
            Self::Packed(words) => {
                let word = words[set];
                SetMeta {
                    valid: word & FIELD_MASK,
                    dirty: (word >> FIELD_BITS) & FIELD_MASK,
                    usable: (word >> (USABLE * FIELD_BITS)) & FIELD_MASK,
                }
            }
            Self::Wide { words, .. } => {
                let [valid, dirty, usable] = words[set];
                SetMeta { valid, dirty, usable }
            }
        }
    }

    /// Sets the ways of `ways`, all below the associativity, in field
    /// `field` of `set`.
    #[inline(always)]
    fn insert(&mut self, set: usize, field: usize, ways: u64) {
        match self {
            Self::Packed(words) => words[set] |= (ways & FIELD_MASK) << (field * FIELD_BITS),
            Self::Wide { words, .. } => words[set][field] |= ways,
        }
    }

    /// Clears the ways of `ways` in field `field` of `set`.
    #[inline(always)]
    fn remove(&mut self, set: usize, field: usize, ways: u64) {
        match self {
            Self::Packed(words) => words[set] &= !((ways & FIELD_MASK) << (field * FIELD_BITS)),
            Self::Wide { words, .. } => words[set][field] &= !ways,
        }
    }

    /// Makes `way` the most recently used way of `set`.
    #[inline(always)]
    fn touch(&mut self, set: usize, way: usize) {
        match self {
            Self::Packed(words) => words[set] = touch_packed(words[set], way),
            Self::Wide { ranks, assoc, .. } => {
                touch_bytes(&mut ranks[set * *assoc..][..*assoc], way);
            }
        }
    }

    /// The way of `set` holding rank `rank`.
    #[inline(always)]
    fn way_ranked(&self, set: usize, rank: u32) -> usize {
        match self {
            Self::Packed(words) => way_ranked_packed(words[set], rank),
            Self::Wide { ranks, assoc, .. } => {
                way_ranked_bytes(&ranks[set * assoc..][..*assoc], rank)
            }
        }
    }

    /// Every rank field of `set`, way by way: eight for a packed set, whose
    /// fields past the associativity hold their own way's index, and one per
    /// way for a wide set.
    #[cfg(any(test, debug_assertions))]
    fn ranks(&self, set: usize) -> Vec<usize> {
        match self {
            Self::Packed(words) => (0..PACKED_WAYS)
                .map(|way| (words[set] >> (RANK_SHIFT + 4 * way)) as usize & 0xf)
                .collect(),
            Self::Wide { ranks, assoc, .. } => ranks[set * assoc..][..*assoc]
                .iter()
                .map(|&r| usize::from(r))
                .collect(),
        }
    }

    /// The number of ways set in field `field`, summed over every set.
    fn count(&self, field: usize) -> u64 {
        (0..self.sets())
            .map(|set| u64::from(self.get(set, field).count_ones()))
            .sum()
    }
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
    /// Per-set `valid`/`dirty`/`usable` bitsets and recency ranks: each
    /// set's ranks are a permutation of `0..assoc`, 0 for the most recent,
    /// and the valid ways hold `0..valid`.
    state: SetStates,
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
        Self {
            assoc,
            offset_bits: geometry.offset_bits(),
            tag_shift: geometry.offset_bits() + geometry.index_bits(),
            set_mask: geometry.sets() - 1,
            tags: Tags::Short(vec![0; sets * assoc]),
            state: SetStates::new(sets, assoc),
            stats: CacheStats::default(),
            geometry,
        }
    }

    /// Creates a cache with the ways of `mask` disabled — the organization any
    /// [`RepairScheme`](crate::repair::RepairScheme) resolves to at low voltage.
    ///
    /// This is the repair-scheme install point: each set's disabled ways are
    /// cleared from its `usable` bitset here, once, so the access path never
    /// consults the scheme or the mask again.
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
        for (set, &disabled) in mask.disabled_ways().iter().enumerate() {
            cache.state.remove(set, USABLE, disabled);
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
        u64::from(self.state.get(set as usize, USABLE).count_ones())
    }

    /// Total number of usable blocks across all sets.
    #[must_use]
    pub fn usable_blocks(&self) -> u64 {
        self.state.count(USABLE)
    }

    /// Whether the block containing `addr` is currently present (no LRU update).
    #[must_use]
    pub fn probe(&self, addr: u64) -> bool {
        let (set, tag) = self.decompose(addr);
        let base = set * self.assoc;
        let meta = self.state.meta(set);
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
        let meta = self.state.meta(set);

        // Hit scan: only ways that are both valid and usable can match. Live
        // tags are unique within a set (a block is allocated at most once), so
        // the lowest matching bit is the hit way.
        let live = meta.valid & meta.usable;
        let hit = self.tags.matches(base..base + self.assoc, tag) & live;
        if hit != 0 {
            self.state.touch(set, hit.trailing_zeros() as usize);
            // Fold the store's dirty bit in without a branch: the mask is
            // all-ones for a write, zero otherwise.
            self.state.insert(set, DIRTY, hit & u64::from(write).wrapping_neg());
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
            self.state.way_ranked(set, live.count_ones() - 1)
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
        self.state.insert(set, VALID, bit);
        if write {
            self.state.insert(set, DIRTY, bit);
        } else {
            self.state.remove(set, DIRTY, bit);
        }
        self.tags.set(base + victim, tag);
        self.state.touch(set, victim);
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
        let meta = self.state.meta(set);
        let hit = self.tags.matches(base..base + self.assoc, tag) & meta.valid & meta.usable;
        // Live tags are unique, so `hit` has at most one bit; keep only the
        // lowest anyway to mirror an ascending scan exactly.
        self.state.insert(set, DIRTY, hit & hit.wrapping_neg());
        hit != 0
    }

    /// Number of valid blocks currently resident.
    #[must_use]
    pub fn resident_blocks(&self) -> u64 {
        self.state.count(VALID)
    }

    /// The rank invariant of `set`, checked in debug builds after every
    /// access: its rank fields are a permutation, each field past the
    /// associativity holds its own way's index, and the valid ways, all
    /// usable, hold ranks `0..valid`.
    #[cfg(debug_assertions)]
    fn debug_check_set(&self, set: usize) {
        let meta = self.state.meta(set);
        let valid = meta.valid.count_ones() as usize;
        let ranks = self.state.ranks(set);
        let mut seen = 0u64;
        for (way, &rank) in ranks.iter().enumerate() {
            seen |= 1 << rank;
            debug_assert_eq!(
                meta.valid >> way & 1 == 1,
                rank < valid,
                "set {set}: way {way} has rank {rank}, but the valid ways must hold 0..{valid}"
            );
            debug_assert!(
                way < self.assoc || rank == way,
                "set {set}: unused way {way} has rank {rank}"
            );
        }
        debug_assert_eq!(
            seen.count_ones() as usize,
            ranks.len(),
            "set {set}: repeated ranks"
        );
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
        // The packed layout (2 and 8 ways) and the wide one (16 and 32
        // ways), each with some ways disabled, under a random stream of
        // accesses and inserts.
        for assoc in [2u64, 8, 16, 32] {
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
            for set in 0..geom.sets() as usize {
                let ranks = c.state.ranks(set);
                let mut sorted = ranks.clone();
                sorted.sort_unstable();
                assert!(
                    sorted.iter().copied().eq(0..ranks.len()),
                    "{assoc} ways, set {set}: {ranks:?}"
                );
                assert_eq!(ranks.len(), (assoc as usize).max(PACKED_WAYS));
                // A packed set's fields past the associativity never move.
                assert!(ranks
                    .iter()
                    .enumerate()
                    .skip(assoc as usize)
                    .all(|(way, &rank)| rank == way));
                let meta = c.state.meta(set);
                assert_eq!(meta.valid & !meta.usable, 0);
                let valid = meta.valid.count_ones() as usize;
                for (way, &rank) in ranks.iter().enumerate() {
                    assert_eq!(meta.valid >> way & 1 == 1, rank < valid, "set {set}: {ranks:?}");
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
        // 4 sets of 2 ways: the tag is the address above bit 8, so `short`
        // has a 16-bit tag, `narrow` a 32-bit one and `wide` a 33-bit one, all
        // in set 1. The row widens a step at a time: 16 to 32 to 64 bits.
        let mut c = small_cache();
        let short = addr(1, u64::from(u16::MAX));
        let narrow = addr(1, u64::from(u32::MAX));
        let wide = addr(1, 1 << 32);
        assert!(!c.access(short, true).hit);
        assert!(matches!(c.tags, Tags::Short(_)));
        assert!(!c.probe(narrow), "no 16-bit tag equals a wider one");
        assert!(!c.access(narrow, false).hit);
        assert!(matches!(c.tags, Tags::Narrow(_)));
        assert!(c.access(short, false).hit, "the short block survives the first widening");
        assert!(!c.probe(wide));
        let out = c.access(wide, false);
        assert_eq!(out.evicted, Some(narrow), "the LRU block, with its full address");
        assert!(matches!(c.tags, Tags::Wide(_)));
        assert!(c.access(short, false).hit, "the short block survives the second widening");
        assert!(c.access(wide, false).hit);
        let out = c.access(addr(1, 7), false);
        assert_eq!(out.evicted, Some(short));
        assert!(out.evicted_dirty);
        assert!(c.mark_dirty(wide));
    }

    /// Bytes of tags, state words and rank bytes the cache holds.
    fn state_bytes(c: &SetAssocCache) -> usize {
        let tags = match &c.tags {
            Tags::Short(tags) => std::mem::size_of_val(tags.as_slice()),
            Tags::Narrow(tags) => std::mem::size_of_val(tags.as_slice()),
            Tags::Wide(tags) => std::mem::size_of_val(tags.as_slice()),
        };
        let state = match &c.state {
            SetStates::Packed(words) => std::mem::size_of_val(words.as_slice()),
            SetStates::Wide { words, ranks, .. } => {
                std::mem::size_of_val(words.as_slice()) + ranks.len()
            }
        };
        tags + state
    }

    #[test]
    fn a_new_l2_holds_96_kib_while_its_tags_fit_16_bits() {
        // 64 KiB of 16-bit tags and 32 KiB of state words, ranks included.
        let mut l2 = SetAssocCache::new(CacheGeometry::ispass2010_l2());
        assert_eq!(state_bytes(&l2), 96 * 1024);
        // Every 32-bit address has a tag of at most 14 bits in the L2.
        for i in 0..50_000u64 {
            l2.access(i.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32, i % 3 == 0);
        }
        l2.access(u64::from(u32::MAX), true);
        assert!(matches!(l2.tags, Tags::Short(_)));
        assert_eq!(state_bytes(&l2), 96 * 1024);
        // An L1 widens to 32-bit tags at the synthetic hot region, for 1 KiB.
        let mut l1 = SetAssocCache::new(CacheGeometry::ispass2010_l1());
        let before = state_bytes(&l1);
        l1.access(0x0fff_ffc0, false);
        assert_eq!(state_bytes(&l1), before);
        l1.access(0x1000_0000, false);
        assert_eq!(state_bytes(&l1), before + 1024);
    }

    /// Steps `p` to the next permutation in lexicographic order; returns
    /// false, leaving `p` as it is, after the last.
    fn next_permutation(p: &mut [usize]) -> bool {
        let Some(i) = p.windows(2).rposition(|pair| pair[0] < pair[1]) else {
            return false;
        };
        let Some(j) = p.iter().rposition(|&x| x > p[i]) else {
            return false;
        };
        p.swap(i, j);
        p[i + 1..].reverse();
        true
    }

    /// `word` with the rank fields of its first ways replaced by `ranks`,
    /// way by way.
    fn with_rank_fields(word: u64, ranks: &[usize]) -> u64 {
        ranks.iter().enumerate().fold(word, |word, (way, &rank)| {
            let shift = RANK_SHIFT + 4 * way;
            word & !(0xf << shift) | (rank as u64) << shift
        })
    }

    #[test]
    fn packed_ranks_match_the_scalar_definition_for_every_permutation() {
        // Every permutation of a packed set's ranks (40,320 at 8 ways), with
        // the rest of the word as a new set has it: each touch of each way
        // must give the word of the scalar touch, which moves only the set's
        // own ways, and each rank's lookup the way a scan finds.
        for assoc in 1..=PACKED_WAYS {
            let SetStates::Packed(words) = SetStates::new(1, assoc) else {
                panic!("{assoc} ways are packed");
            };
            let new_word = words[0];
            let mut ranks: Vec<usize> = (0..assoc).collect();
            let mut permutations = 0;
            loop {
                let word = with_rank_fields(new_word, &ranks);
                for way in 0..assoc {
                    let r = ranks[way];
                    let touched: Vec<usize> = ranks
                        .iter()
                        .map(|&q| match q.cmp(&r) {
                            std::cmp::Ordering::Less => q + 1,
                            std::cmp::Ordering::Equal => 0,
                            std::cmp::Ordering::Greater => q,
                        })
                        .collect();
                    let want = with_rank_fields(word, &touched);
                    assert_eq!(
                        touch_packed(word, way),
                        want,
                        "{assoc} ways: touch way {way} of {ranks:?}"
                    );
                    let scan = ranks.iter().position(|&q| q == way).unwrap();
                    assert_eq!(
                        way_ranked_packed(word, way as u32),
                        scan,
                        "{assoc} ways: rank {way} in {ranks:?}"
                    );
                }
                permutations += 1;
                if !next_permutation(&mut ranks) {
                    break;
                }
            }
            assert_eq!(permutations, (1..=assoc).product::<usize>());
        }
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
