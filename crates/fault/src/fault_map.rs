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

use rand::rngs::SmallRng;
use rand::{gen_bool_threshold, Rng, SeedableRng};

use crate::geometry::CacheGeometry;
use crate::variation::DieVariation;

/// Fault status of one cache block.
#[derive(Debug, Clone, PartialEq, Eq)]
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

/// A sampled fault map for one cache array.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultMap {
    geometry: CacheGeometry,
    pfail: f64,
    seed: u64,
    blocks: Vec<BlockFaults>,
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
        let blocks = sample_blocks(
            geometry,
            seed,
            |_, _| Band::exact(thresholds),
            |_| thresholds,
        );
        Self {
            geometry: *geometry,
            pfail,
            seed,
            blocks,
        }
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
        let offsets = die.offsets();
        let blocks = sample_blocks(
            die.geometry(),
            seed,
            |set, way| bands[die.tile(set, way)],
            |block| thresholds(offsets[block]),
        );
        Self {
            geometry: *die.geometry(),
            pfail: die.model().pfail_voltage.pfail(voltage),
            seed,
            blocks,
        }
    }

    /// A fault map with no faults at all (what the cache sees at or above Vcc-min).
    #[must_use]
    pub fn fault_free(geometry: &CacheGeometry) -> Self {
        let words = geometry.words_per_block() as u8;
        Self {
            geometry: *geometry,
            pfail: 0.0,
            seed: 0,
            blocks: (0..geometry.blocks())
                .map(|_| BlockFaults::fault_free(words))
                .collect(),
        }
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

    /// Fault record of the block in `set`, `way`.
    ///
    /// # Panics
    ///
    /// Panics if `set` or `way` are out of range.
    #[must_use]
    pub fn block(&self, set: u64, way: u64) -> &BlockFaults {
        assert!(set < self.geometry.sets(), "set {set} out of range");
        assert!(way < self.geometry.associativity(), "way {way} out of range");
        &self.blocks[(set * self.geometry.associativity() + way) as usize]
    }

    /// The block fault records set by set: one slice per set, in set order,
    /// each holding that set's ways in way order. Walking these slices reads
    /// every block without [`FaultMap::block`]'s per-block range checks.
    pub fn sets(&self) -> std::slice::ChunksExact<'_, BlockFaults> {
        self.blocks
            .chunks_exact(self.geometry.associativity() as usize)
    }

    /// Iterates over all block fault records in (set-major, way-minor) order.
    pub fn iter_blocks(&self) -> impl Iterator<Item = &BlockFaults> {
        self.blocks.iter()
    }

    /// Whether the block in `set`, `way` would be disabled by block-disabling
    /// (i.e. contains any data, tag or metadata fault).
    #[must_use]
    pub fn block_is_faulty(&self, set: u64, way: u64) -> bool {
        self.block(set, way).has_any_fault()
    }

    /// Number of fault-free ways in a set — the usable associativity of that set
    /// under block-disabling at low voltage.
    #[must_use]
    pub fn usable_ways_in_set(&self, set: u64) -> u64 {
        (0..self.geometry.associativity())
            .filter(|&w| !self.block_is_faulty(set, w))
            .count() as u64
    }

    /// Number of fault-free blocks in the whole cache.
    #[must_use]
    pub fn fault_free_blocks(&self) -> u64 {
        self.blocks.iter().filter(|b| !b.has_any_fault()).count() as u64
    }

    /// Fraction of fault-free blocks — the capacity retained under block-disabling.
    #[must_use]
    pub fn fault_free_block_fraction(&self) -> f64 {
        self.fault_free_blocks() as f64 / self.geometry.blocks() as f64
    }

    /// Whether a word-disabled cache built from this array is usable at low voltage:
    /// every subblock of `subblock_len` words must contain at most
    /// `subblock_len / 2` faulty words. (Tag cells don't count: word-disabling
    /// stores them in robust 10T cells.) Each subblock costs one masked
    /// popcount of its block's faulty-word mask.
    ///
    /// # Panics
    ///
    /// Panics if `subblock_len` is zero.
    #[must_use]
    pub fn word_disable_usable(&self, subblock_len: u8) -> bool {
        assert!(subblock_len > 0, "a word-disable subblock holds at least one word");
        let budget = u32::from(subblock_len / 2);
        let len = u32::from(subblock_len);
        let subblock = u64::MAX >> 64u32.saturating_sub(len);
        self.blocks.iter().all(|b| {
            let faulty = b.faulty_word_mask();
            let mut start = 0;
            while start < u32::from(b.words()) {
                if ((faulty >> start) & subblock).count_ones() > budget {
                    return false;
                }
                start += len;
            }
            true
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
        let blocks = self
            .blocks
            .iter()
            .zip(&other.blocks)
            .map(|(a, b)| {
                BlockFaults::new(
                    a.words(),
                    a.faulty_word_mask() | b.faulty_word_mask(),
                    a.tag_is_faulty() || b.tag_is_faulty(),
                )
            })
            .collect();
        FaultMap {
            geometry: self.geometry,
            pfail: self.pfail.max(other.pfail),
            seed: self.seed,
            blocks,
        }
    }

    /// Aggregate statistics of the map.
    #[must_use]
    pub fn stats(&self) -> FaultMapStats {
        FaultMapStats {
            total_blocks: self.geometry.blocks(),
            faulty_blocks: self.blocks.iter().filter(|b| b.has_any_fault()).count() as u64,
            faulty_words: self
                .blocks
                .iter()
                .map(|b| u64::from(b.faulty_word_count()))
                .sum(),
            faulty_tags: self.blocks.iter().filter(|b| b.tag_is_faulty()).count() as u64,
        }
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

/// The [`Band`] of every tile of `die`, indexed by [`DieVariation::tile`],
/// from `thresholds` at the tile's extreme offsets.
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
/// each draw against `band`. Returns the faulty-word mask, whether the tag
/// is faulty, and whether any draw fell inside the band, in which case the
/// mask and tag flag are not final.
///
/// One `overflowing_sub` per draw gives both answers. It borrows exactly
/// when the draw is below `lo` (faulty), and then the wrapped difference
/// exceeds any band width; otherwise the difference is below the band's
/// width exactly when the draw is inside the band. For a [`Band::exact`]
/// band the width is zero, so the second test folds away. Word `w`'s bit
/// enters the mask at the top and is shifted down into place, which keeps
/// every shift by a constant.
#[inline]
fn draw_block(rng: &mut SmallRng, words: u8, band: &Band) -> (u64, bool, bool) {
    let word_width = band.hi.word - band.lo.word;
    let mut mask = 0u64;
    let mut undecided = false;
    for _ in 0..words {
        let (above, faulty) = (rng.next_u64() >> 11).overflowing_sub(band.lo.word);
        mask = (mask >> 1) | (u64::from(faulty) << 63);
        undecided |= above < word_width;
    }
    let mask = mask.checked_shr(64 - u32::from(words)).unwrap_or(0);
    let (above, tag_faulty) = (rng.next_u64() >> 11).overflowing_sub(band.lo.tag);
    undecided |= above < band.hi.tag - band.lo.tag;
    (mask, tag_faulty, undecided)
}

/// The one sampling loop behind both [`FaultMap::generate`] and
/// [`FaultMap::generate_at_voltage`]: blocks in (set-major, way-minor)
/// order, each drawing one uniform per word then one for the tag. `band`
/// gives the [`Band`] of the block in (set, way) and `exact` the thresholds
/// of block number `block` in that order. `generate` passes the same empty
/// band for every block, so each of its draws is one comparison. Sharing
/// the loop makes the documented invariants (zero-systematic voltage
/// sampling is bit-identical to i.i.d. sampling at the same probability, and
/// faults nest across voltages) structural rather than merely test-enforced.
///
/// Each draw is decided by integer comparisons against its block's
/// [`gen_bool_threshold`]s, and the decision is exactly `gen_bool`'s on the
/// same draw (the argument is in that function's doc). A draw decided by the
/// band agrees with its block's threshold because the threshold lies inside
/// the band (see [`FaultMap::generate_at_voltage`]; debug builds assert it
/// for every block). A block with a draw inside its band replays its draws
/// from a copy of the generator against its own thresholds. So a map is
/// bit-identical to one that samples every word with `gen_bool(p_word)` and
/// every tag with `gen_bool(p_tag)`.
fn sample_blocks(
    geometry: &CacheGeometry,
    seed: u64,
    band: impl Fn(u64, u64) -> Band,
    exact: impl Fn(usize) -> BlockThresholds,
) -> Vec<BlockFaults> {
    let words_per_block = geometry.words_per_block() as u8;
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut blocks = Vec::with_capacity(geometry.blocks() as usize);
    for set in 0..geometry.sets() {
        for way in 0..geometry.associativity() {
            let band = band(set, way);
            debug_assert!(
                band.contains(exact(blocks.len())),
                "block {} (set {set}, way {way}) has thresholds {:?} outside its band {band:?}",
                blocks.len(),
                exact(blocks.len())
            );
            let mut replay = rng.clone();
            let (mut mask, mut tag_faulty, undecided) =
                draw_block(&mut rng, words_per_block, &band);
            if undecided {
                let own = Band::exact(exact(blocks.len()));
                (mask, tag_faulty, _) = draw_block(&mut replay, words_per_block, &own);
            }
            blocks.push(BlockFaults::new(words_per_block, mask, tag_faulty));
        }
    }
    blocks
}

#[cfg(test)]
mod tests {
    use super::*;
    use vccmin_analysis::block_faults;

    fn l1() -> CacheGeometry {
        CacheGeometry::ispass2010_l1()
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
        m.blocks[0] = BlockFaults::new(16, 0b0001_1111, false);
        assert!(!m.word_disable_usable(8));
        // 4 faulty words are within budget.
        m.blocks[0] = BlockFaults::new(16, 0b0000_1111, false);
        assert!(m.word_disable_usable(8));
        // Faulty tags do not matter for word-disable usability.
        m.blocks[1] = BlockFaults::new(16, 0, true);
        assert!(m.word_disable_usable(8));
    }

    #[test]
    fn word_disable_usability_matches_the_window_by_window_walk() {
        // The walk the masked popcount replaced: one range count per subblock.
        fn by_windows(m: &FaultMap, subblock_len: u8) -> bool {
            let budget = u32::from(subblock_len / 2);
            m.blocks.iter().all(|b| {
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
        let mut m = FaultMap::fault_free(&l1());
        for words in [16u8, 64] {
            for &mask in &masks {
                m.blocks[3] = BlockFaults::new(words, mask, false);
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
        let m = FaultMap::generate(&l1(), 0.003, 8);
        assert_eq!(m.sets().len() as u64, l1().sets());
        for (set, blocks) in m.sets().enumerate() {
            assert_eq!(blocks.len() as u64, l1().associativity());
            for (way, block) in blocks.iter().enumerate() {
                assert_eq!(block, m.block(set as u64, way as u64));
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
                            for set in 0..geometry.sets() {
                                for way in 0..geometry.associativity() {
                                    let own = thresholds(die.systematic_offset(set, way));
                                    let band = bands[die.tile(set, way)];
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
