//! Fault maps: which words and tags of a cache contain low-voltage faults.
//!
//! A fault map is the information a boot-time low-voltage memory test produces and
//! that the disabling hardware consumes: for every block, which of its words contain
//! at least one faulty cell, and whether its tag/metadata cells contain a fault.
//!
//! Fault maps are sampled assuming independent uniform cell faults with probability
//! `pfail`, the paper's fault model. Sampling happens at word/tag granularity with
//! the exact derived probabilities (`1 - (1 - pfail)^bits`), which is statistically
//! identical to cell-level sampling for every question the disabling schemes ask.
//!
//! # Layout
//!
//! A map keeps three packed `Vec<u64>`, each in block order (set-major,
//! way-minor: block `b` is way `b % ways` of set `b / ways`):
//!
//! * the faulty-word masks: block `b`'s mask is a lane of `words_per_block`
//!   bits starting at bit `b * words_per_block`, word `w` of the block at the
//!   lane's bit `w`;
//! * the tag bits: bit `b` is set when block `b`'s tag or metadata cells hold
//!   a fault;
//! * the any-fault bits: bit `b` is set when block `b` holds any fault, the
//!   OR of its lane and its tag bit.
//!
//! The paper's 16-word blocks take 18 bits each. Its 2 MB L2 map holds 72 KiB
//! of words (512 KiB as 16-byte records) and its 32 KB L1 map 1,152 B
//! ([`FaultMap::packed_bytes`]).
//!
//! A lane never straddles two words. [`CacheGeometry::new`] admits 1 to 64
//! words per block, and block and word sizes are powers of two, so the lane
//! width is a power of two that divides 64 and lanes tile each word from bit
//! 0. The associativity is a power of two as well, so a set of up to 64 ways
//! sits inside one word of each bitset, and a set's lanes fill whole words or
//! one aligned part of a word. A per-block question is then one shift and one
//! mask. Whole-map questions ([`FaultMap::stats`],
//! [`FaultMap::word_disable_usable`], [`FaultMap::union`]) run word by word
//! over the vectors without decoding a block, and the repair rules read a
//! set's bitsets and lanes through [`SetFaults`].
//!
//! The any-fault bits follow from the other two vectors, but they are what
//! block disabling, bit-fix, way-sacrifice and the fleet's capacity checks
//! read first: one extraction settles every clean set. They are recorded while
//! sampling, one OR per block beside the block's 17 draws, and not cached on
//! first use. A lazy cache would need interior mutability in maps that threads
//! share, would charge its walk to whichever check came first, and would make
//! two maps with the same faults compare unequal by their cache state.

use rand::rngs::SmallRng;
use rand::{gen_bool_threshold, Rng, SeedableRng};

use crate::geometry::CacheGeometry;
use crate::variation::DieVariation;

/// Fault status of one cache block: the value [`FaultMap::block`] decodes
/// from a map's packed vectors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockFaults {
    /// Bit `w` set means word `w` of the block contains at least one faulty cell.
    faulty_words: u64,
    /// Whether the tag or per-block metadata contains at least one faulty cell.
    tag_faulty: bool,
    /// Number of words in the block (for bounds checking and iteration).
    words: u8,
}

impl BlockFaults {
    /// Creates a fault record for a block with `words` words.
    ///
    /// # Panics
    ///
    /// Panics if `words` exceeds 64 (the bitmask width).
    #[must_use]
    pub fn new(words: u8, faulty_words: u64, tag_faulty: bool) -> Self {
        assert!(words as usize <= 64, "at most 64 words per block supported");
        let mask = if words == 64 {
            u64::MAX
        } else {
            (1u64 << words) - 1
        };
        Self {
            faulty_words: faulty_words & mask,
            tag_faulty,
            words,
        }
    }

    /// A completely fault-free block.
    #[must_use]
    pub fn fault_free(words: u8) -> Self {
        Self::new(words, 0, false)
    }

    /// Whether word `w` of the block is faulty.
    #[must_use]
    pub fn word_is_faulty(&self, w: u8) -> bool {
        w < self.words && (self.faulty_words >> w) & 1 == 1
    }

    /// Whether the tag (or metadata) of the block is faulty.
    #[must_use]
    pub fn tag_is_faulty(&self) -> bool {
        self.tag_faulty
    }

    /// Number of faulty words in the block.
    #[must_use]
    pub fn faulty_word_count(&self) -> u32 {
        self.faulty_words.count_ones()
    }

    /// Number of faulty words within a subblock `[start, start + len)`,
    /// clipped to the block: one popcount of the masked window.
    #[must_use]
    pub fn faulty_words_in_range(&self, start: u8, len: u8) -> u32 {
        let end = (u32::from(start) + u32::from(len)).min(u32::from(self.words));
        let start = u32::from(start);
        if start >= end {
            return 0;
        }
        let window = u64::MAX >> (64 - (end - start));
        ((self.faulty_words >> start) & window).count_ones()
    }

    /// Whether the block contains any fault at all (data, tag or metadata) — the
    /// condition under which block-disabling turns the block off at low voltage.
    #[must_use]
    pub fn has_any_fault(&self) -> bool {
        self.tag_faulty || self.faulty_words != 0
    }

    /// Number of words tracked by this record.
    #[must_use]
    pub fn words(&self) -> u8 {
        self.words
    }

    /// Raw bitmask of faulty words.
    #[must_use]
    pub fn faulty_word_mask(&self) -> u64 {
        self.faulty_words
    }
}

/// Aggregate statistics of a fault map.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultMapStats {
    /// Total number of blocks in the cache.
    pub total_blocks: u64,
    /// Blocks containing at least one fault (data or tag).
    pub faulty_blocks: u64,
    /// Total number of faulty words across all blocks.
    pub faulty_words: u64,
    /// Blocks whose tag/metadata cells contain a fault.
    pub faulty_tags: u64,
}

/// A sampled fault map for one cache array, packed as the
/// [module documentation](self) describes.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultMap {
    geometry: CacheGeometry,
    layout: Layout,
    pfail: f64,
    seed: u64,
    /// Block `b`'s faulty-word mask in the lane at bit `b * words_per_block`.
    words: Vec<u64>,
    /// Bit `b`: block `b`'s tag or metadata cells hold a fault.
    tags: Vec<u64>,
    /// Bit `b`: block `b` holds any fault, in a word or in its tag.
    faulty: Vec<u64>,
}

/// Where a geometry's blocks sit in a map's packed vectors: the base-2
/// logarithms of the lane width (the words per block) and of the
/// associativity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Layout {
    lane_log2: u32,
    ways_log2: u32,
}

impl Layout {
    fn new(geometry: &CacheGeometry) -> Self {
        Self {
            lane_log2: geometry.words_per_block().trailing_zeros(),
            ways_log2: geometry.associativity().trailing_zeros(),
        }
    }

    /// Words per block, the width of a lane (at most 64).
    fn words(self) -> u8 {
        1 << self.lane_log2
    }

    /// The low bits that hold one lane.
    fn lane_mask(self) -> u64 {
        u64::MAX >> (64 - u32::from(self.words()))
    }

    /// Block `block`'s faulty-word mask in `words`.
    fn lane(self, words: &[u64], block: usize) -> u64 {
        let bit = block << self.lane_log2;
        (words[bit >> 6] >> (bit & 63)) & self.lane_mask()
    }
}

/// Bit `index` of a packed bitset.
fn bit_of(bits: &[u64], index: usize) -> bool {
    (bits[index >> 6] >> (index & 63)) & 1 == 1
}

/// The set bits of `words`.
fn count_ones(words: &[u64]) -> u64 {
    words.iter().map(|w| u64::from(w.count_ones())).sum()
}

/// The `u64` words that hold `bits` bits.
fn words_for(bits: u64) -> u64 {
    bits.div_ceil(64)
}

/// The SWAR popcount masks: step `k` adds each pair of adjacent `2^k`-bit
/// fields into one field of `2^(k+1)` bits, keeping the bits `SWAR_STEPS[k]`
/// selects.
const SWAR_STEPS: [u64; 6] = [
    0x5555_5555_5555_5555,
    0x3333_3333_3333_3333,
    0x0f0f_0f0f_0f0f_0f0f,
    0x00ff_00ff_00ff_00ff,
    0x0000_ffff_0000_ffff,
    0x0000_0000_ffff_ffff,
];

/// `FIELD_ONES[k]` holds a one in the lowest bit of every `2^k`-bit field.
const FIELD_ONES: [u64; 7] = [
    u64::MAX,
    0x5555_5555_5555_5555,
    0x1111_1111_1111_1111,
    0x0101_0101_0101_0101,
    0x0001_0001_0001_0001,
    0x0000_0001_0000_0001,
    1,
];

/// The popcount of every `2^field_log2`-bit field of `x`, each in its own
/// field. A field's count never exceeds its width, so no step carries into
/// the next field.
fn field_counts(mut x: u64, field_log2: u32) -> u64 {
    for (step, &keep) in SWAR_STEPS.iter().enumerate().take(field_log2 as usize) {
        x = (x & keep) + ((x >> (1 << step)) & keep);
    }
    x
}

/// A SWAR test of which `2^field_log2`-bit fields of a word hold more than
/// `budget` set bits. Adding `2^(width - 1) - 1 - budget` to a field's count
/// sets the field's top bit exactly when the count exceeds the budget, and a
/// count of at most `width` never carries out of its field
/// (`width + 2^(width - 1) - 1 < 2^width`).
#[derive(Debug, Clone, Copy)]
struct FieldsOver {
    field_log2: u32,
    bias: u64,
    tops: u64,
}

impl FieldsOver {
    /// The test, or `None` when no field can exceed `budget`: a field holds
    /// at most its width of set bits.
    fn new(field_log2: u32, budget: u64) -> Option<Self> {
        let width = 1u32 << field_log2;
        if budget >= u64::from(width) {
            return None;
        }
        let ones = FIELD_ONES[field_log2 as usize];
        let top = 1u64 << (width - 1);
        Some(Self {
            field_log2,
            bias: ones * (top - 1 - budget),
            tops: ones << (width - 1),
        })
    }

    /// The top bit of every field of `x` that holds more than the budget,
    /// and no other bit.
    fn of(self, x: u64) -> u64 {
        (field_counts(x, self.field_log2) + self.bias) & self.tops
    }
}

impl FaultMap {
    /// Samples a fault map for `geometry` with per-cell failure probability `pfail`,
    /// using `seed` for reproducibility.
    ///
    /// # Panics
    ///
    /// Panics if `pfail` is not a finite value in `[0, 1]`.
    #[must_use]
    pub fn generate(geometry: &CacheGeometry, pfail: f64, seed: u64) -> Self {
        assert!(
            pfail.is_finite() && (0.0..=1.0).contains(&pfail),
            "pfail must be a probability, got {pfail}"
        );
        let thresholds = BlockThresholds::new(geometry, pfail);
        sample_blocks(
            geometry,
            pfail,
            seed,
            |_| Band::exact(thresholds),
            |_| thresholds,
        )
    }

    /// Samples the fault map of a concrete die at a given supply voltage: each
    /// block's cells fail with the block's own probability
    /// [`DieVariation::cell_pfail_at`] (the calibrated `pfail(V)` bridge
    /// shifted by the block's systematic Vcc-min offset), sampled at word/tag
    /// granularity exactly like [`FaultMap::generate`].
    ///
    /// Two invariants make this the backbone of the yield studies:
    ///
    /// * **Voltage nesting** — for the same `die` and `seed`, the faults at a
    ///   lower voltage are a superset of the faults at any higher voltage
    ///   (each word/tag compares the *same* uniform draw against a threshold
    ///   that only grows as the supply drops), so a die's minimum operational
    ///   voltage is well defined and yield curves are monotone.
    /// * **i.i.d. degeneracy** — for a die with zero systematic variance this
    ///   is bit-for-bit identical to `FaultMap::generate(geom, pfail(V), seed)`:
    ///   same per-word probabilities, same RNG consumption order.
    ///
    /// A block's thresholds come from a `pfail(V)`, `ln_1p` and `exp_m1`
    /// chain that costs more than the block's 17 draws, so it runs only where
    /// a draw needs it. Each tile of the die (a run of consecutive sets in one
    /// way) evaluates the chain at its smallest and its largest offset, and
    /// every draw of the tile's blocks is first decided against the band
    /// between those two thresholds: below the band the draw is faulty, at or
    /// above it clean. Only a block with a draw inside the band computes its
    /// own thresholds. This is exact because the threshold is monotone in the
    /// offset up to libm rounding. The steps from the offset to the exponent
    /// of `powf` are correctly rounded monotone operations, the exact `10^y`,
    /// `ln(1 - p)` and `1 - e^z` are monotone, and `powf`, `ln_1p` and
    /// `exp_m1` err by a few ulps. The band is widened on both sides by a
    /// margin of `4 + t / 2^32` units that covers that rounding many times
    /// over. So every block's own thresholds lie inside its tile's band, and
    /// debug builds assert it for every block of every map.
    ///
    /// The map's `pfail` metadata records the i.i.d.-bridge failure
    /// probability `pfail(voltage)` (the die-average including systematic
    /// offsets is available as [`DieVariation::mean_cell_pfail_at`]).
    ///
    /// # Panics
    ///
    /// Panics if `voltage` is NaN.
    #[must_use]
    pub fn generate_at_voltage(die: &DieVariation, voltage: f64, seed: u64) -> Self {
        assert!(!voltage.is_nan(), "voltage must not be NaN");
        let thresholds = offset_thresholds(die, voltage);
        let bands = tile_bands(die, &thresholds);
        let (bands, offsets, tile) = (&bands, die.offsets(), die.block_tiles());
        sample_blocks(
            die.geometry(),
            die.model().pfail_voltage.pfail(voltage),
            seed,
            move |block| bands[tile(block)],
            |block| thresholds(offsets[block]),
        )
    }

    /// A fault map with no faults at all (what the cache sees at or above Vcc-min).
    #[must_use]
    pub fn fault_free(geometry: &CacheGeometry) -> Self {
        let zeros = |bits: u64| vec![0; words_for(bits) as usize];
        Self {
            geometry: *geometry,
            layout: Layout::new(geometry),
            pfail: 0.0,
            seed: 0,
            words: zeros(geometry.blocks() * geometry.words_per_block()),
            tags: zeros(geometry.blocks()),
            faulty: zeros(geometry.blocks()),
        }
    }

    /// The bytes of packed words a map of `geometry` holds: its faulty-word
    /// lanes, its tag bits and its any-fault bits. 72 KiB for the paper's
    /// 2 MB L2 and 1,152 B for its 32 KB L1.
    #[must_use]
    pub fn packed_bytes(geometry: &CacheGeometry) -> u64 {
        let blocks = geometry.blocks();
        8 * (words_for(blocks * geometry.words_per_block()) + 2 * words_for(blocks))
    }

    /// The cache geometry this fault map describes.
    #[must_use]
    pub fn geometry(&self) -> &CacheGeometry {
        &self.geometry
    }

    /// The per-cell failure probability the map was sampled at.
    #[must_use]
    pub fn pfail(&self) -> f64 {
        self.pfail
    }

    /// The RNG seed the map was sampled with.
    #[must_use]
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The number of block (set-major, way-minor) of `set`, `way`.
    ///
    /// # Panics
    ///
    /// Panics if `set` or `way` are out of range.
    fn block_index(&self, set: u64, way: u64) -> usize {
        assert!(set < self.geometry.sets(), "set {set} out of range");
        assert!(
            way < self.geometry.associativity(),
            "way {way} out of range"
        );
        (set * self.geometry.associativity() + way) as usize
    }

    /// Block number `block`'s fault record, decoded from the packed vectors.
    fn block_at(&self, block: usize) -> BlockFaults {
        BlockFaults {
            faulty_words: self.layout.lane(&self.words, block),
            tag_faulty: bit_of(&self.tags, block),
            words: self.layout.words(),
        }
    }

    /// Fault record of the block in `set`, `way`.
    ///
    /// # Panics
    ///
    /// Panics if `set` or `way` are out of range.
    #[must_use]
    pub fn block(&self, set: u64, way: u64) -> BlockFaults {
        self.block_at(self.block_index(set, way))
    }

    /// The map set by set, in set order. Each [`SetFaults`] reads its set's
    /// way bitsets and lanes from the packed vectors without decoding a
    /// block.
    ///
    /// # Panics
    ///
    /// Panics if the geometry has more than 64 ways per set: a set's way
    /// bitsets are one `u64`.
    pub fn sets(&self) -> impl ExactSizeIterator<Item = SetFaults<'_>> {
        assert!(
            self.layout.ways_log2 <= 6,
            "a set view holds at most 64 ways, got {}",
            self.geometry.associativity()
        );
        let ways_log2 = self.layout.ways_log2;
        (0..self.geometry.sets() as usize).map(move |set| SetFaults {
            map: self,
            first: set << ways_log2,
        })
    }

    /// Iterates over all block fault records in (set-major, way-minor) order.
    pub fn iter_blocks(&self) -> impl Iterator<Item = BlockFaults> + '_ {
        (0..self.geometry.blocks() as usize).map(|block| self.block_at(block))
    }

    /// Whether the block in `set`, `way` would be disabled by block-disabling
    /// (i.e. contains any data, tag or metadata fault).
    ///
    /// # Panics
    ///
    /// Panics if `set` or `way` are out of range.
    #[must_use]
    pub fn block_is_faulty(&self, set: u64, way: u64) -> bool {
        bit_of(&self.faulty, self.block_index(set, way))
    }

    /// Number of fault-free ways in a set — the usable associativity of that set
    /// under block-disabling at low voltage.
    ///
    /// # Panics
    ///
    /// Panics if `set` is out of range.
    #[must_use]
    pub fn usable_ways_in_set(&self, set: u64) -> u64 {
        let ways = self.geometry.associativity();
        let first = self.block_index(set, 0);
        let faulty = if ways >= 64 {
            count_ones(&self.faulty[first >> 6..][..(ways / 64) as usize])
        } else {
            let set_bits = (self.faulty[first >> 6] >> (first & 63)) & (u64::MAX >> (64 - ways));
            u64::from(set_bits.count_ones())
        };
        ways - faulty
    }

    /// Number of fault-free blocks in the whole cache.
    #[must_use]
    pub fn fault_free_blocks(&self) -> u64 {
        self.geometry.blocks() - count_ones(&self.faulty)
    }

    /// Fraction of fault-free blocks — the capacity retained under block-disabling.
    #[must_use]
    pub fn fault_free_block_fraction(&self) -> f64 {
        self.fault_free_blocks() as f64 / self.geometry.blocks() as f64
    }

    /// Whether a word-disabled cache built from this array is usable at low voltage:
    /// every subblock of `subblock_len` words must contain at most
    /// `subblock_len / 2` faulty words. (Tag cells don't count: word-disabling
    /// stores them in robust 10T cells.) A block's subblocks start at its
    /// first word, and the last one stops at the block's end.
    ///
    /// When the subblocks tile the lanes (a subblock of at least a block, or
    /// a power of two of words), each is an aligned field of the packed
    /// words, and one SWAR count tests every field of a word at once. Other
    /// lengths cost one masked popcount per subblock.
    ///
    /// # Panics
    ///
    /// Panics if `subblock_len` is zero.
    #[must_use]
    pub fn word_disable_usable(&self, subblock_len: u8) -> bool {
        assert!(subblock_len > 0, "a word-disable subblock holds at least one word");
        let budget = u64::from(subblock_len / 2);
        let lane = u32::from(self.layout.words());
        let len = u32::from(subblock_len);
        if len >= lane || len.is_power_of_two() {
            return match FieldsOver::new(len.min(lane).trailing_zeros(), budget) {
                Some(over) => self.words.iter().all(|&w| over.of(w) == 0),
                None => true,
            };
        }
        let windows: Vec<(u32, u64)> = (0..64)
            .step_by(lane as usize)
            .flat_map(|start| {
                (0..lane)
                    .step_by(len as usize)
                    .map(move |s| (start + s, u64::MAX >> (64 - len.min(lane - s))))
            })
            .collect();
        self.words.iter().all(|&w| {
            windows
                .iter()
                .all(|&(shift, window)| u64::from(((w >> shift) & window).count_ones()) <= budget)
        })
    }

    /// The union of two fault maps: a block's word is faulty (and a tag is
    /// faulty) if it is faulty in *either* map. The result is a fault superset
    /// of both inputs, which is what the repair-scheme monotonicity properties
    /// quantify over ("more faults never increase capacity").
    ///
    /// The resulting map keeps `self`'s seed and the larger of the two `pfail`
    /// values as metadata.
    ///
    /// # Panics
    ///
    /// Panics if the two maps were generated for different geometries.
    #[must_use]
    pub fn union(&self, other: &FaultMap) -> FaultMap {
        assert_eq!(
            self.geometry, other.geometry,
            "fault maps must share a geometry to be merged"
        );
        let or = |a: &[u64], b: &[u64]| a.iter().zip(b).map(|(x, y)| x | y).collect();
        FaultMap {
            geometry: self.geometry,
            layout: self.layout,
            pfail: self.pfail.max(other.pfail),
            seed: self.seed,
            words: or(&self.words, &other.words),
            tags: or(&self.tags, &other.tags),
            faulty: or(&self.faulty, &other.faulty),
        }
    }

    /// Aggregate statistics of the map: one popcount per packed word.
    #[must_use]
    pub fn stats(&self) -> FaultMapStats {
        FaultMapStats {
            total_blocks: self.geometry.blocks(),
            faulty_blocks: count_ones(&self.faulty),
            faulty_words: count_ones(&self.words),
            faulty_tags: count_ones(&self.tags),
        }
    }
}

/// One set of a [`FaultMap`], as [`FaultMap::sets`] yields it. It reads the
/// set's any-fault and tag-fault way bitsets, and its ways' faulty-word
/// counts, from the map's packed vectors a whole `u64` at a time; bit `w` of
/// a way bitset is way `w`.
#[derive(Clone, Copy)]
pub struct SetFaults<'a> {
    map: &'a FaultMap,
    /// The number of the set's first block.
    first: usize,
}

impl SetFaults<'_> {
    /// The set's bits of a one-bit-per-block bitset: at most 64 of them,
    /// inside one word.
    fn ways_of(&self, bits: &[u64]) -> u64 {
        let ways = 1u32 << self.map.layout.ways_log2;
        (bits[self.first >> 6] >> (self.first & 63)) & (u64::MAX >> (64 - ways))
    }

    /// The ways that hold any fault, in a word or in the tag.
    #[must_use]
    pub fn faulty_ways(&self) -> u64 {
        self.ways_of(&self.map.faulty)
    }

    /// The ways whose tag or metadata cells hold a fault.
    #[must_use]
    pub fn tag_faulty_ways(&self) -> u64 {
        self.ways_of(&self.map.tags)
    }

    /// The ways with more than `budget` faulty words. The set's lanes fill
    /// whole words or one aligned part of a word, and one SWAR count
    /// compares every lane of a word with the budget at once.
    #[must_use]
    pub fn ways_with_more_faulty_words_than(&self, budget: u64) -> u64 {
        let Layout {
            lane_log2,
            ways_log2,
        } = self.map.layout;
        let Some(over) = FieldsOver::new(lane_log2, budget) else {
            return 0;
        };
        let start = self.first << lane_log2;
        let set_log2 = lane_log2 + ways_log2;
        let (count, shift, keep) = if set_log2 < 6 {
            (1, start & 63, u64::MAX >> (64 - (1u32 << set_log2)))
        } else {
            (1 << (set_log2 - 6), 0, u64::MAX)
        };
        let mut ways = 0;
        for (i, &word) in self.map.words[start >> 6..][..count].iter().enumerate() {
            let mut hits = over.of((word >> shift) & keep);
            while hits != 0 {
                let lane = (hits.trailing_zeros() >> lane_log2) as usize;
                ways |= 1 << ((i << (6 - lane_log2)) + lane);
                hits &= hits - 1;
            }
        }
        ways
    }

    /// The number of faulty words of way `way`: one popcount of its lane.
    ///
    /// # Panics
    ///
    /// Panics if `way` is out of range.
    #[must_use]
    pub fn faulty_word_count(&self, way: u64) -> u32 {
        self.block(way).faulty_word_count()
    }

    /// The fault record of way `way`.
    ///
    /// # Panics
    ///
    /// Panics if `way` is out of range.
    #[must_use]
    pub fn block(&self, way: u64) -> BlockFaults {
        let ways = 1u64 << self.map.layout.ways_log2;
        assert!(way < ways, "way {way} out of range");
        self.map.block_at(self.first + way as usize)
    }
}

impl std::fmt::Debug for SetFaults<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SetFaults")
            .field("set", &(self.first >> self.map.layout.ways_log2))
            .field("faulty_ways", &format_args!("{:#b}", self.faulty_ways()))
            .field(
                "tag_faulty_ways",
                &format_args!("{:#b}", self.tag_faulty_ways()),
            )
            .finish()
    }
}

/// The fault thresholds of one block: a word (the tag) is faulty when the top
/// 53 bits of its uniform draw fall below `word` (`tag`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct BlockThresholds {
    word: u64,
    tag: u64,
}

impl BlockThresholds {
    /// The thresholds of a block of `geometry` whose cells fail with
    /// probability `p`: a group of `bits` cells holds a fault with
    /// probability `1 - (1 - p)^bits`, and the word and tag groups share one
    /// `ln(1 - p)`.
    fn new(geometry: &CacheGeometry, p: f64) -> Self {
        let word_bits = geometry.word_bytes() * 8;
        let tag_bits = geometry.tag_bits() + geometry.meta_bits();
        let (p_word, p_tag) = if p <= 0.0 {
            (0.0, 0.0)
        } else if p >= 1.0 {
            (1.0, 1.0)
        } else {
            let ln_clean = f64::ln_1p(-p);
            (
                -f64::exp_m1(word_bits as f64 * ln_clean),
                -f64::exp_m1(tag_bits as f64 * ln_clean),
            )
        };
        Self {
            word: gen_bool_threshold(p_word),
            tag: gen_bool_threshold(p_tag),
        }
    }
}

/// The thresholds at `voltage` of a block of `die` whose systematic offset
/// is the argument: the block sees the supply `voltage - offset`.
fn offset_thresholds(die: &DieVariation, voltage: f64) -> impl Fn(f64) -> BlockThresholds {
    let geometry = *die.geometry();
    let pfail = die.model().pfail_voltage.pfail_curve();
    move |offset| BlockThresholds::new(&geometry, pfail(voltage - offset))
}

/// The [`Band`] of every tile of `die`, indexed by
/// [`DieVariation::block_tiles`], from `thresholds` at the tile's extreme
/// offsets.
fn tile_bands(die: &DieVariation, thresholds: impl Fn(f64) -> BlockThresholds) -> Vec<Band> {
    die.tile_extremes()
        .iter()
        .map(|&(fast, slow)| Band::widened(thresholds(fast), thresholds(slow)))
        .collect()
}

/// How far a [`Band`] reaches past a threshold `t` it was built from: 4
/// units plus `t / 2^32`. A block's threshold can differ from the one its
/// tile's extreme would imply only through the rounding of `powf`, `ln_1p`
/// and `exp_m1`. Each errs by a few ulps, which moves `t` by at most about
/// `t / 2^50` plus one unit for the `ceil`, so the margin covers it many
/// times over while widening the band by a negligible fraction.
fn rounding_margin(t: u64) -> u64 {
    4 + (t >> 32)
}

/// The thresholds every block of one tile is known to lie between: for each
/// block, `lo.word <= word <= hi.word` and `lo.tag <= tag <= hi.tag`. A draw
/// `x` below `lo` is faulty for every block of the tile, one at or above
/// `hi` is clean for every block, and only a draw in `[lo, hi)` needs the
/// block's own thresholds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Band {
    lo: BlockThresholds,
    hi: BlockThresholds,
}

impl Band {
    /// The empty band of one exactly known threshold pair: every draw is
    /// decided by a single comparison.
    fn exact(t: BlockThresholds) -> Self {
        Self { lo: t, hi: t }
    }

    /// The band of a tile from the thresholds at its smallest offset
    /// (`fast`, the lowest thresholds) and at its largest (`slow`, the
    /// highest), each widened by its [`rounding_margin`].
    fn widened(fast: BlockThresholds, slow: BlockThresholds) -> Self {
        let below = |t: u64| t.saturating_sub(rounding_margin(t));
        let above = |t: u64| t + rounding_margin(t);
        Self {
            lo: BlockThresholds {
                word: below(fast.word),
                tag: below(fast.tag),
            },
            hi: BlockThresholds {
                word: above(slow.word),
                tag: above(slow.tag),
            },
        }
    }

    /// Whether a block with thresholds `t` may be decided by this band.
    fn contains(&self, t: BlockThresholds) -> bool {
        (self.lo.word..=self.hi.word).contains(&t.word)
            && (self.lo.tag..=self.hi.tag).contains(&t.tag)
    }
}

/// Draws one block (one uniform per word, then one for the tag) and decides
/// each draw against `band`. Returns `lanes` with the block's `WORDS`
/// faulty-word bits shifted in at the bottom, whether the tag is faulty, and
/// whether any draw fell inside the band, in which case the bits and the tag
/// flag are not final.
///
/// One `overflowing_sub` per draw gives both answers. It borrows exactly
/// when the draw is below `lo` (faulty), and then the wrapped difference
/// exceeds any band width; otherwise the difference is below the band's
/// width exactly when the draw is inside the band. For a [`Band::exact`]
/// band the width is zero, so the second test folds away. The borrow enters
/// `lanes` as `lanes + lanes + borrow`, one add-with-carry, so the draws of
/// a packed word arrive in reverse bit order ([`sample_lanes`] reverses the
/// word once it is full).
#[inline]
fn draw_block<const WORDS: u32>(
    rng: &mut SmallRng,
    band: &Band,
    mut lanes: u64,
) -> (u64, bool, bool) {
    let word_width = band.hi.word - band.lo.word;
    let mut undecided = false;
    for _ in 0..WORDS {
        let (above, faulty) = (rng.next_u64() >> 11).overflowing_sub(band.lo.word);
        lanes = lanes.wrapping_add(lanes).wrapping_add(u64::from(faulty));
        undecided |= above < word_width;
    }
    let (above, tag_faulty) = (rng.next_u64() >> 11).overflowing_sub(band.lo.tag);
    undecided |= above < band.hi.tag - band.lo.tag;
    (lanes, tag_faulty, undecided)
}

/// The one sampling loop behind both [`FaultMap::generate`] and
/// [`FaultMap::generate_at_voltage`]: blocks in (set-major, way-minor)
/// order, each drawing one uniform per word then one for the tag. `band`
/// gives the [`Band`] and `exact` the thresholds of block number `block` in
/// that order. `generate` passes the same empty band for every block, so
/// each of its draws is one comparison. Sharing the loop makes the
/// documented invariants (zero-systematic voltage sampling is bit-identical
/// to i.i.d. sampling at the same probability, and faults nest across
/// voltages) structural rather than merely test-enforced.
///
/// Each draw is decided by integer comparisons against its block's
/// [`gen_bool_threshold`]s, and the decision is exactly `gen_bool`'s on the
/// same draw (the argument is in that function's doc). A draw decided by the
/// band agrees with its block's threshold because the threshold lies inside
/// the band (see [`FaultMap::generate_at_voltage`]; debug builds assert it
/// for every block). A block with a draw inside its band replays its draws
/// from a copy of the generator, and from the packed bits before the block,
/// against its own thresholds. So a map is bit-identical to one that samples
/// every word with `gen_bool(p_word)` and every tag with `gen_bool(p_tag)`.
/// The map records `pfail` and `seed` as its metadata.
fn sample_blocks(
    geometry: &CacheGeometry,
    pfail: f64,
    seed: u64,
    band: impl Fn(usize) -> Band,
    exact: impl Fn(usize) -> BlockThresholds,
) -> FaultMap {
    let (words, tags, faulty) = match geometry.words_per_block() {
        1 => sample_lanes::<1>(geometry, seed, band, exact),
        2 => sample_lanes::<2>(geometry, seed, band, exact),
        4 => sample_lanes::<4>(geometry, seed, band, exact),
        8 => sample_lanes::<8>(geometry, seed, band, exact),
        16 => sample_lanes::<16>(geometry, seed, band, exact),
        32 => sample_lanes::<32>(geometry, seed, band, exact),
        _ => sample_lanes::<64>(geometry, seed, band, exact),
    };
    FaultMap {
        geometry: *geometry,
        layout: Layout::new(geometry),
        pfail,
        seed,
        words,
        tags,
        faulty,
    }
}

/// [`sample_blocks`] for blocks of `WORDS` words (a power of two from 1 to
/// 64, which [`CacheGeometry::new`] guarantees), returning the packed word
/// lanes, tag bits and any-fault bits. The width is a type parameter so that
/// a block's draws unroll: together with the add-with-carry verdicts, that
/// keeps sampling as fast as the one-record-per-block sampler it replaced,
/// which a runtime width or a shift of each lane into place did not.
///
/// Each of the three vectors fills in a register that takes one bit per
/// draw (or per block) at the bottom ([`draw_block`]). Once 64 bits have
/// entered, the register holds the next packed word with its bits in
/// reverse order, and is pushed reversed. The outer loop runs once per
/// packed word of lanes, over the `64 / WORDS` blocks that fill it.
fn sample_lanes<const WORDS: u32>(
    geometry: &CacheGeometry,
    seed: u64,
    band: impl Fn(usize) -> Band,
    exact: impl Fn(usize) -> BlockThresholds,
) -> (Vec<u64>, Vec<u64>, Vec<u64>) {
    debug_assert_eq!(u64::from(WORDS), geometry.words_per_block());
    let lane = u64::MAX >> (64 - WORDS);
    let blocks = geometry.blocks() as usize;
    // A map of fewer than 64 bits of lanes fills one partial word.
    let per_word = (64 / WORDS as usize).min(blocks);
    let with_bits = |bits: usize| Vec::with_capacity(bits.div_ceil(64));
    let mut packed_words = with_bits(blocks * WORDS as usize);
    let (mut packed_tags, mut packed_faulty) = (with_bits(blocks), with_bits(blocks));
    let (mut lanes, mut tags, mut faulty) = (0u64, 0u64, 0u64);
    let mut rng = SmallRng::seed_from_u64(seed);
    for first in (0..blocks).step_by(per_word) {
        for block in first..first + per_word {
            let band = band(block);
            debug_assert!(
                band.contains(exact(block)),
                "block {block} has thresholds {:?} outside its band {band:?}",
                exact(block)
            );
            let mut replay = rng.clone();
            let (mut drawn, mut tag_faulty, undecided) =
                draw_block::<WORDS>(&mut rng, &band, lanes);
            if undecided {
                let own = Band::exact(exact(block));
                (drawn, tag_faulty, _) = draw_block::<WORDS>(&mut replay, &own, lanes);
            }
            lanes = drawn;
            tags = tags.wrapping_add(tags).wrapping_add(u64::from(tag_faulty));
            let any = tag_faulty || lanes & lane != 0;
            faulty = faulty.wrapping_add(faulty).wrapping_add(u64::from(any));
        }
        packed_words.push(lanes.reverse_bits() >> (64 - per_word * WORDS as usize));
        if (first + per_word) & 63 == 0 {
            packed_tags.push(tags.reverse_bits());
            packed_faulty.push(faulty.reverse_bits());
        }
    }
    // A map of fewer than 64 blocks: its tag bits fill one partial word.
    if blocks & 63 != 0 {
        packed_tags.push(tags.reverse_bits() >> (64 - blocks));
        packed_faulty.push(faulty.reverse_bits() >> (64 - blocks));
    }
    (packed_words, packed_tags, packed_faulty)
}

#[cfg(test)]
mod tests {
    use super::*;
    use vccmin_analysis::block_faults;

    fn l1() -> CacheGeometry {
        CacheGeometry::ispass2010_l1()
    }

    /// Overwrites block number `block` of `map` with `faults`.
    fn set_block(map: &mut FaultMap, block: usize, faults: BlockFaults) {
        let layout = map.layout;
        let bit = block << layout.lane_log2;
        let lane = &mut map.words[bit >> 6];
        *lane &= !(layout.lane_mask() << (bit & 63));
        *lane |= (faults.faulty_word_mask() & layout.lane_mask()) << (bit & 63);
        for (bits, set) in [
            (&mut map.tags, faults.tag_is_faulty()),
            (&mut map.faulty, faults.has_any_fault()),
        ] {
            bits[block >> 6] &= !(1 << (block & 63));
            bits[block >> 6] |= u64::from(set) << (block & 63);
        }
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let a = FaultMap::generate(&l1(), 0.001, 123);
        let b = FaultMap::generate(&l1(), 0.001, 123);
        let c = FaultMap::generate(&l1(), 0.001, 124);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn fault_free_map_has_full_capacity() {
        let m = FaultMap::fault_free(&l1());
        assert_eq!(m.fault_free_blocks(), 512);
        assert_eq!(m.fault_free_block_fraction(), 1.0);
        assert!(m.word_disable_usable(8));
        let stats = m.stats();
        assert_eq!(stats.faulty_blocks, 0);
        assert_eq!(stats.faulty_words, 0);
        assert_eq!(stats.faulty_tags, 0);
        assert_eq!(m, FaultMap::generate(&l1(), 0.0, 0));
    }

    #[test]
    fn zero_pfail_generates_no_faults() {
        let m = FaultMap::generate(&l1(), 0.0, 7);
        assert_eq!(m.stats().faulty_blocks, 0);
    }

    #[test]
    fn pfail_one_faults_every_block() {
        let m = FaultMap::generate(&l1(), 1.0, 7);
        assert_eq!(m.fault_free_blocks(), 0);
        assert!(!m.word_disable_usable(8));
        for set in 0..m.geometry().sets() {
            assert_eq!(m.usable_ways_in_set(set), 0);
        }
    }

    #[test]
    fn a_2_mb_l2_map_holds_72_kib_of_packed_words_and_an_l1_map_1152_bytes() {
        for (geometry, bytes) in [
            (CacheGeometry::ispass2010_l2(), 72 * 1024),
            (l1(), 1152),
            (CacheGeometry::ispass2010_victim_cache(), 48),
        ] {
            assert_eq!(FaultMap::packed_bytes(&geometry), bytes, "{geometry}");
            for map in [
                FaultMap::generate(&geometry, 0.01, 3),
                FaultMap::fault_free(&geometry),
            ] {
                let held = map.words.len() + map.tags.len() + map.faulty.len();
                assert_eq!(8 * held as u64, bytes, "{geometry}");
                let reserved = map.words.capacity() + map.tags.capacity() + map.faulty.capacity();
                assert_eq!(reserved, held, "{geometry}: no spare capacity");
            }
        }
    }

    #[test]
    fn capacity_matches_analytical_mean_over_many_maps() {
        // Average the empirical capacity over several maps and compare against the
        // analytical mean capacity (1 - pfail)^k from the analysis crate.
        let geom = l1();
        let pfail = 0.001;
        let n = 40;
        let mean_cap: f64 = (0..n)
            .map(|s| FaultMap::generate(&geom, pfail, s).fault_free_block_fraction())
            .sum::<f64>()
            / f64::from(n as u32);
        let analytical = block_faults::mean_capacity(&geom.to_array_geometry(), pfail);
        assert!(
            (mean_cap - analytical).abs() < 0.03,
            "empirical {mean_cap} vs analytical {analytical}"
        );
    }

    #[test]
    fn usable_ways_sum_equals_fault_free_blocks() {
        let m = FaultMap::generate(&l1(), 0.002, 99);
        let sum: u64 = (0..m.geometry().sets()).map(|s| m.usable_ways_in_set(s)).sum();
        assert_eq!(sum, m.fault_free_blocks());
    }

    #[test]
    fn stats_are_internally_consistent() {
        let m = FaultMap::generate(&l1(), 0.003, 5);
        let stats = m.stats();
        assert_eq!(stats.total_blocks, 512);
        assert!(stats.faulty_blocks <= stats.total_blocks);
        // Every block with a faulty tag or faulty word counts as a faulty block.
        let recount = m
            .iter_blocks()
            .filter(|b| b.tag_is_faulty() || b.faulty_word_count() > 0)
            .count() as u64;
        assert_eq!(stats.faulty_blocks, recount);
    }

    #[test]
    fn word_disable_usability_depends_on_subblock_budget() {
        // Construct a map by hand: a block with 5 faulty words in the first subblock
        // makes the cache unusable for 8-word subblocks.
        let geom = l1();
        let mut m = FaultMap::fault_free(&geom);
        set_block(&mut m, 0, BlockFaults::new(16, 0b0001_1111, false));
        assert!(!m.word_disable_usable(8));
        // 4 faulty words are within budget.
        set_block(&mut m, 0, BlockFaults::new(16, 0b0000_1111, false));
        assert!(m.word_disable_usable(8));
        // Faulty tags do not matter for word-disable usability.
        set_block(&mut m, 1, BlockFaults::new(16, 0, true));
        assert!(m.word_disable_usable(8));
    }

    #[test]
    fn word_disable_usability_matches_the_window_by_window_walk() {
        // The walk the masked popcount replaced: one range count per subblock.
        fn by_windows(m: &FaultMap, subblock_len: u8) -> bool {
            let budget = u32::from(subblock_len / 2);
            m.iter_blocks().all(|b| {
                (0..b.words())
                    .step_by(subblock_len as usize)
                    .all(|start| b.faulty_words_in_range(start, subblock_len) <= budget)
            })
        }
        let masks = [
            0,
            u64::MAX,
            0x8000_0000_0000_0001,
            0xdead_beef_0bad_f00d,
            0x5555_5555_5555_5555,
            0x0f0f_0000_00f0_f0ff,
            0x0000_0000_0000_001f,
        ];
        // 16- and 64-word blocks, and 1-word blocks whose lanes pack 64 to a
        // word; the hand-set block sits between clean neighbours.
        for block_bytes in [64, 256, 4] {
            let geometry = CacheGeometry::new(32 * 1024, block_bytes, 8, 24).unwrap();
            let words = geometry.words_per_block() as u8;
            let mut m = FaultMap::fault_free(&geometry);
            for &mask in &masks {
                set_block(&mut m, 3, BlockFaults::new(words, mask, false));
                for len in 1..=u8::MAX {
                    assert_eq!(
                        m.word_disable_usable(len),
                        by_windows(&m, len),
                        "words={words} mask={mask:#x} subblock={len}"
                    );
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "at least one word")]
    fn an_empty_word_disable_subblock_is_rejected() {
        let _ = FaultMap::fault_free(&l1()).word_disable_usable(0);
    }

    #[test]
    fn block_faults_accessors() {
        let b = BlockFaults::new(16, 0b1010, true);
        assert!(b.word_is_faulty(1));
        assert!(!b.word_is_faulty(0));
        assert!(!b.word_is_faulty(63));
        assert_eq!(b.faulty_word_count(), 2);
        assert_eq!(b.faulty_words_in_range(0, 8), 2);
        assert_eq!(b.faulty_words_in_range(8, 8), 0);
        assert!(b.tag_is_faulty());
        assert!(b.has_any_fault());
        assert_eq!(b.words(), 16);
        assert_eq!(b.faulty_word_mask(), 0b1010);
        assert!(!BlockFaults::fault_free(16).has_any_fault());
    }

    #[test]
    fn faulty_words_in_range_clips_windows_past_the_block_without_overflow() {
        let b = BlockFaults::new(16, 0b1100_0000_0000_0001, false);
        // `start + len` does not fit a u8 here.
        assert_eq!(b.faulty_words_in_range(200, 100), 0);
        assert_eq!(b.faulty_words_in_range(10, 250), 2);
        assert_eq!(b.faulty_words_in_range(0, 255), 3);
        assert_eq!(b.faulty_words_in_range(255, 255), 0);
        let full = BlockFaults::new(64, u64::MAX, true);
        assert_eq!(full.faulty_words_in_range(0, 255), 64);
        assert_eq!(full.faulty_words_in_range(63, 255), 1);
    }

    #[test]
    fn faulty_words_in_range_popcount_matches_the_word_by_word_count() {
        // The word-by-word loop the popcount replaced, with the window end
        // computed wide enough not to overflow.
        fn by_words(b: &BlockFaults, start: u8, len: u8) -> u32 {
            let end = (u16::from(start) + u16::from(len)).min(u16::from(b.words()));
            (u16::from(start)..end)
                .filter(|&w| b.word_is_faulty(w as u8))
                .count() as u32
        }
        let masks = [
            0,
            u64::MAX,
            0x8000_0000_0000_0001,
            0xdead_beef_0bad_f00d,
            0x5555_5555_5555_5555,
        ];
        for words in [16u8, 64] {
            for &mask in &masks {
                let b = BlockFaults::new(words, mask, false);
                for start in 0..=u8::MAX {
                    for len in 0..=u8::MAX {
                        assert_eq!(
                            b.faulty_words_in_range(start, len),
                            by_words(&b, start, len),
                            "words={words} mask={mask:#x} start={start} len={len}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn set_slices_hold_every_block_in_set_and_way_order() {
        for (geometry, pfail) in [
            (l1(), 0.003),
            (l1(), 0.05),
            (CacheGeometry::ispass2010_victim_cache(), 0.02),
            (CacheGeometry::new(4096, 16, 2, 24).unwrap(), 0.05),
        ] {
            let m = FaultMap::generate(&geometry, pfail, 8);
            assert_eq!(m.sets().len() as u64, geometry.sets());
            for (set, view) in m.sets().enumerate() {
                let (mut faulty, mut tags) = (0u64, 0u64);
                for way in 0..geometry.associativity() {
                    let block = m.block(set as u64, way);
                    assert_eq!(view.block(way), block);
                    assert_eq!(view.faulty_word_count(way), block.faulty_word_count());
                    faulty |= u64::from(block.has_any_fault()) << way;
                    tags |= u64::from(block.tag_is_faulty()) << way;
                }
                assert_eq!(view.faulty_ways(), faulty, "{geometry} set {set}");
                assert_eq!(view.tag_faulty_ways(), tags, "{geometry} set {set}");
            }
        }
    }

    #[test]
    fn field_counts_and_budgets_match_the_per_field_popcount() {
        let words = [
            0,
            u64::MAX,
            1,
            1 << 63,
            0x8000_0000_0000_0001,
            0xdead_beef_0bad_f00d,
            0x5555_5555_5555_5555,
            0x0f0f_0000_00f0_f0ff,
            0x0123_4567_89ab_cdef,
            0xffff_0000_ffff_0000,
        ];
        for field_log2 in 0..=6u32 {
            let width = 1u32 << field_log2;
            let field = u64::MAX >> (64 - width);
            for &x in &words {
                let counts = field_counts(x, field_log2);
                for start in (0..64).step_by(width as usize) {
                    let expected = u64::from(((x >> start) & field).count_ones());
                    assert_eq!(
                        (counts >> start) & field,
                        expected,
                        "x={x:#x} width={width}"
                    );
                }
                for budget in 0..=u64::from(width) + 1 {
                    let over = FieldsOver::new(field_log2, budget).map_or(0, |t| t.of(x));
                    let expected = (0..64).step_by(width as usize).fold(0, |acc, start| {
                        let count = u64::from(((x >> start) & field).count_ones());
                        acc | u64::from(count > budget) << (start + width - 1)
                    });
                    assert_eq!(over, expected, "x={x:#x} width={width} budget={budget}");
                }
            }
        }
    }

    #[test]
    fn union_is_a_superset_of_both_operands() {
        let a = FaultMap::generate(&l1(), 0.002, 1);
        let b = FaultMap::generate(&l1(), 0.002, 2);
        let u = a.union(&b);
        for set in 0..l1().sets() {
            for way in 0..l1().associativity() {
                let (ba, bb, bu) = (a.block(set, way), b.block(set, way), u.block(set, way));
                assert_eq!(
                    bu.faulty_word_mask(),
                    ba.faulty_word_mask() | bb.faulty_word_mask()
                );
                assert_eq!(bu.tag_is_faulty(), ba.tag_is_faulty() || bb.tag_is_faulty());
                assert_eq!(u.block_is_faulty(set, way), bu.has_any_fault());
            }
        }
        assert!(u.fault_free_blocks() <= a.fault_free_blocks().min(b.fault_free_blocks()));
        // Union with itself (or a fault-free map) is the identity on the faults.
        assert_eq!(a.union(&a).stats(), a.stats());
        assert_eq!(a.union(&FaultMap::fault_free(&l1())).stats(), a.stats());
    }

    #[test]
    #[should_panic(expected = "share a geometry")]
    fn union_rejects_mismatched_geometries() {
        let a = FaultMap::generate(&l1(), 0.001, 1);
        let b = FaultMap::generate(&CacheGeometry::ispass2010_l2(), 0.001, 1);
        let _ = a.union(&b);
    }

    #[test]
    #[should_panic(expected = "pfail must be a probability")]
    fn invalid_pfail_panics() {
        let _ = FaultMap::generate(&l1(), 1.5, 0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_block_access_panics() {
        let m = FaultMap::fault_free(&l1());
        let _ = m.block(64, 0);
    }

    #[test]
    fn zero_systematic_variance_sampling_is_bit_identical_to_iid_generate() {
        use crate::variation::{DieVariation, VariationModel};
        use vccmin_analysis::yield_model::PfailVoltageModel;

        let bridge = PfailVoltageModel::ispass2010();
        let die = DieVariation::sample(&l1(), &VariationModel::iid(bridge), 1);
        for &(voltage, seed) in &[(0.50, 7u64), (0.55, 8), (0.47, 1234)] {
            let at_voltage = FaultMap::generate_at_voltage(&die, voltage, seed);
            let iid = FaultMap::generate(&l1(), bridge.pfail(voltage), seed);
            assert_eq!(
                at_voltage, iid,
                "zero-systematic sampling at V={voltage} must degenerate to i.i.d."
            );
        }
    }

    #[test]
    fn faults_are_nested_across_voltages_for_the_same_die_and_seed() {
        use crate::variation::{DieVariation, VariationModel};

        let die = DieVariation::sample(&l1(), &VariationModel::ispass2010(), 99);
        let voltages = [0.65, 0.60, 0.55, 0.50, 0.45];
        let maps: Vec<FaultMap> = voltages
            .iter()
            .map(|&v| FaultMap::generate_at_voltage(&die, v, 5))
            .collect();
        for pair in maps.windows(2) {
            let (higher, lower) = (&pair[0], &pair[1]);
            for set in 0..l1().sets() {
                for way in 0..l1().associativity() {
                    let h = higher.block(set, way);
                    let l = lower.block(set, way);
                    assert_eq!(
                        h.faulty_word_mask() & l.faulty_word_mask(),
                        h.faulty_word_mask(),
                        "a word faulty at a higher voltage must stay faulty below"
                    );
                    assert!(!h.tag_is_faulty() || l.tag_is_faulty());
                }
            }
            assert!(lower.stats().faulty_words >= higher.stats().faulty_words);
        }
    }

    #[test]
    fn systematic_offsets_skew_faults_toward_slow_blocks() {
        use crate::variation::{DieVariation, VariationModel};
        use vccmin_analysis::yield_model::PfailVoltageModel;

        // A strongly varying die: blocks with a positive systematic offset
        // (higher Vcc-min) must accumulate more word faults than blocks with a
        // negative one, aggregated over many sampling seeds.
        let model = VariationModel::new(PfailVoltageModel::ispass2010(), 0.05, 4);
        let die = DieVariation::sample(&l1(), &model, 4);
        let mut slow = (0.0f64, 0.0f64); // (faulty words, blocks) with offset > 0
        let mut fast = (0.0f64, 0.0f64); // with offset < 0
        for seed in 0..30 {
            let map = FaultMap::generate_at_voltage(&die, 0.5, seed);
            for set in 0..l1().sets() {
                for way in 0..l1().associativity() {
                    let faults = f64::from(map.block(set, way).faulty_word_count());
                    if die.systematic_offset(set, way) > 0.0 {
                        slow = (slow.0 + faults, slow.1 + 1.0);
                    } else {
                        fast = (fast.0 + faults, fast.1 + 1.0);
                    }
                }
            }
        }
        assert!(slow.1 > 0.0 && fast.1 > 0.0, "the die should have both kinds of blocks");
        assert!(
            slow.0 / slow.1 > fast.0 / fast.1,
            "slow blocks ({}) must fault more than fast blocks ({})",
            slow.0 / slow.1,
            fast.0 / fast.1
        );
    }

    #[test]
    #[should_panic(expected = "must not be NaN")]
    fn nan_voltage_is_rejected_by_generate_at_voltage() {
        use crate::variation::{DieVariation, VariationModel};
        let die = DieVariation::sample(&l1(), &VariationModel::ispass2010(), 0);
        let _ = FaultMap::generate_at_voltage(&die, f64::NAN, 0);
    }

    #[test]
    fn word_level_sampling_matches_word_fault_probability() {
        // The empirical fraction of faulty words should approach 1-(1-p)^32.
        let geom = l1();
        let pfail = 0.002;
        let total_words = geom.blocks() * geom.words_per_block();
        let mut faulty = 0u64;
        let n_maps = 20;
        for s in 0..n_maps {
            faulty += FaultMap::generate(&geom, pfail, s).stats().faulty_words;
        }
        let frac = faulty as f64 / (total_words * n_maps) as f64;
        let expected = 1.0 - (1.0 - pfail).powi(32);
        assert!(
            (frac - expected).abs() < 0.01,
            "empirical {frac} vs expected {expected}"
        );
    }

    #[test]
    fn every_block_lies_inside_its_tile_band() {
        use crate::variation::{DieVariation, VariationModel};
        use vccmin_analysis::yield_model::PfailVoltageModel;

        // From saturation at 1 for every offset (-inf) through the yield
        // grid and its surroundings to saturation at 0 (20 V, inf).
        let voltages = [
            f64::NEG_INFINITY,
            0.2,
            0.4,
            0.45,
            0.475,
            0.5,
            0.5123456,
            0.55,
            0.6,
            0.7,
            1.0,
            20.0,
            f64::INFINITY,
        ];
        let geometries = [
            (CacheGeometry::ispass2010_l1(), 6),
            (CacheGeometry::ispass2010_l2(), 1),
            (CacheGeometry::ispass2010_victim_cache(), 6),
        ];
        for (geometry, dies) in geometries {
            for sigma in [0.0, 0.0125, 0.05, 0.2] {
                for grid_points in [1, 4, 7] {
                    let model =
                        VariationModel::new(PfailVoltageModel::ispass2010(), sigma, grid_points);
                    for die_seed in 0..dies {
                        let die = DieVariation::sample(&geometry, &model, die_seed);
                        for &v in &voltages {
                            let thresholds = offset_thresholds(&die, v);
                            let bands = tile_bands(&die, &thresholds);
                            let tile = die.block_tiles();
                            for set in 0..geometry.sets() {
                                for way in 0..geometry.associativity() {
                                    let own = thresholds(die.systematic_offset(set, way));
                                    let block = (set * geometry.associativity() + way) as usize;
                                    let band = bands[tile(block)];
                                    assert!(
                                        band.contains(own),
                                        "{geometry} sigma={sigma} points={grid_points} \
                                         die={die_seed} V={v} set={set} way={way}: \
                                         {own:?} outside {band:?}"
                                    );
                                }
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn a_band_reaches_past_its_extremes_by_more_than_libm_rounding() {
        // A few ulps of `powf`, `ln_1p` or `exp_m1` error move a threshold
        // `t` by about `t / 2^50`, plus one unit for the `ceil`. A block whose
        // threshold overshoots either extreme of its tile by that much (here
        // 64 times as much) must still be inside the tile's band.
        for t in [0, 1, 7, 1 << 20, 1 << 40, (1 << 52) + 3, 1 << 53] {
            let error = 2 + (t >> 44);
            let pair = BlockThresholds {
                word: t,
                tag: t / 2,
            };
            let band = Band::widened(pair, pair);
            let shifted = |delta: i64| BlockThresholds {
                word: pair.word.saturating_add_signed(delta),
                tag: pair.tag.saturating_add_signed(delta),
            };
            assert!(band.contains(shifted(error as i64)), "t={t}");
            assert!(band.contains(shifted(-(error as i64))), "t={t}");
        }
    }
}
