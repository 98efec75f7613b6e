//! Differential tests of the packed fault map against a frozen port of the
//! 16-byte-record map it replaced.
//!
//! `FaultMap` keeps each block's faulty-word mask in a lane of
//! `words_per_block` bits of a packed `Vec<u64>`, beside one tag-fault bit
//! and one any-fault bit per block, and the repair rules of
//! `vccmin_cache::repair` read a set's way bitsets and lane counts through
//! `SetFaults` a whole word at a time. The claim is that nothing a map
//! answers changed. The port below is the old map line for line: a
//! `Vec<BlockFaults>` sampled by the old loop (one record per block, the
//! mask built from the top), its `stats`, `fault_free_blocks`,
//! `usable_ways_in_set`, `word_disable_usable` and `union`, and the old
//! per-set rules of block disabling, bit-fix and way-sacrifice over
//! `&[BlockFaults]`.
//!
//! The comparisons cover every lane width a geometry admits (1, 2, 4 … 64
//! words per block) against 1 to 64 ways, the paper's L1, L2 and victim
//! cache, failure probabilities from 0 through 1, unions of maps, maps of
//! fewer than 64 bits, and maps sampled at a voltage on a varying die.

use rand::rngs::SmallRng;
use rand::{gen_bool_threshold, Rng, SeedableRng};

use vccmin_core::analysis::bit_fix::BitFixParams;
use vccmin_core::cache::repair::registry;
use vccmin_core::cache::DisablingScheme;
use vccmin_core::fault::{BlockFaults, FaultMapStats};
use vccmin_core::{CacheGeometry, DieVariation, FaultMap, PfailVoltageModel, VariationModel};

// ---------------------------------------------------------------------------
// Frozen port of the 16-byte-record map.
// ---------------------------------------------------------------------------

/// The old map: one `BlockFaults` per block, set-major, way-minor.
#[derive(Debug, Clone, PartialEq)]
struct FrozenMap {
    geometry: CacheGeometry,
    blocks: Vec<BlockFaults>,
}

/// The probability that `bits` cells hold a fault.
fn prob_any_fault(bits: u64, p: f64) -> f64 {
    if p <= 0.0 {
        0.0
    } else if p >= 1.0 {
        1.0
    } else {
        -f64::exp_m1(bits as f64 * f64::ln_1p(-p))
    }
}

/// Port of the old `pfail(V)` bridge, as `fault_sampling.rs` ports it.
fn frozen_pfail(model: &PfailVoltageModel, v: f64) -> f64 {
    let log10_p = model.anchor_pfail.log10() - model.decades_per_volt * (v - model.anchor_voltage);
    10f64.powf(log10_p).clamp(0.0, 1.0)
}

impl FrozenMap {
    /// Port of the old sampling loop with a per-(set, way) cell probability:
    /// one draw per word (word `w`'s bit entering the mask at the top and
    /// moving down), then one for the tag, each faulty below its threshold.
    fn sample(geometry: &CacheGeometry, seed: u64, p_cell: impl Fn(u64, u64) -> f64) -> Self {
        let words = geometry.words_per_block() as u8;
        let word_bits = geometry.word_bytes() * 8;
        let tag_bits = geometry.tag_bits() + geometry.meta_bits();
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut blocks = Vec::with_capacity(geometry.blocks() as usize);
        for set in 0..geometry.sets() {
            for way in 0..geometry.associativity() {
                let p = p_cell(set, way);
                let word = gen_bool_threshold(prob_any_fault(word_bits, p));
                let tag = gen_bool_threshold(prob_any_fault(tag_bits, p));
                let mut mask = 0u64;
                for _ in 0..words {
                    let faulty = (rng.next_u64() >> 11) < word;
                    mask = (mask >> 1) | (u64::from(faulty) << 63);
                }
                let mask = mask.checked_shr(64 - u32::from(words)).unwrap_or(0);
                let tag_faulty = (rng.next_u64() >> 11) < tag;
                blocks.push(BlockFaults::new(words, mask, tag_faulty));
            }
        }
        Self {
            geometry: *geometry,
            blocks,
        }
    }

    fn generate(geometry: &CacheGeometry, pfail: f64, seed: u64) -> Self {
        Self::sample(geometry, seed, |_, _| pfail)
    }

    fn generate_at_voltage(die: &DieVariation, voltage: f64, seed: u64) -> Self {
        let model = die.model().pfail_voltage;
        Self::sample(die.geometry(), seed, |set, way| {
            frozen_pfail(&model, voltage - die.systematic_offset(set, way))
        })
    }

    fn sets(&self) -> std::slice::ChunksExact<'_, BlockFaults> {
        self.blocks
            .chunks_exact(self.geometry.associativity() as usize)
    }

    fn stats(&self) -> FaultMapStats {
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

    fn fault_free_blocks(&self) -> u64 {
        self.blocks.iter().filter(|b| !b.has_any_fault()).count() as u64
    }

    fn usable_ways_in_set(&self, set: u64) -> u64 {
        let ways = self.geometry.associativity();
        (0..ways)
            .filter(|&way| !self.blocks[(set * ways + way) as usize].has_any_fault())
            .count() as u64
    }

    fn word_disable_usable(&self, subblock_len: u8) -> bool {
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

    fn union(&self, other: &FrozenMap) -> FrozenMap {
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
        FrozenMap {
            geometry: self.geometry,
            blocks,
        }
    }
}

/// The old `ways_where`: the bitset of the ways of one set for which `pick`
/// holds.
fn ways_where(blocks: &[BlockFaults], pick: impl Fn(&BlockFaults) -> bool) -> u64 {
    blocks
        .iter()
        .enumerate()
        .fold(0, |ways, (way, block)| ways | u64::from(pick(block)) << way)
}

/// The old block-disabling rule: every faulty block.
fn frozen_block_disable(blocks: &[BlockFaults]) -> u64 {
    ways_where(blocks, BlockFaults::has_any_fault)
}

fn frozen_unrepairable(block: &BlockFaults, budget: u64) -> bool {
    block.tag_is_faulty() || u64::from(block.faulty_word_count()) > budget
}

/// The old bit-fix sacrifice: the first way with the highest
/// (unrepairable, faulty words + tag) score.
fn frozen_sacrificed_way(blocks: &[BlockFaults], budget: u64) -> usize {
    let mut best_way = 0;
    let mut best_score = (false, 0u32);
    for (way, block) in blocks.iter().enumerate() {
        let score = (
            frozen_unrepairable(block, budget),
            block.faulty_word_count() + u32::from(block.tag_is_faulty()),
        );
        if score > best_score {
            best_score = score;
            best_way = way;
        }
    }
    best_way
}

/// The old bit-fix rule: nothing in a clean set; the sacrificed way and the
/// unrepairable ways in a faulty one.
fn frozen_bit_fix(blocks: &[BlockFaults], budget: u64) -> u64 {
    if !blocks.iter().any(BlockFaults::has_any_fault) {
        return 0;
    }
    (1 << frozen_sacrificed_way(blocks, budget))
        | ways_where(blocks, |block| frozen_unrepairable(block, budget))
}

/// The old way-sacrifice worst way: the first way with the most faulty
/// cells (words + tag).
fn frozen_worst_way(blocks: &[BlockFaults]) -> usize {
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

/// The old way-sacrifice rule: the worst way and every faulty way.
fn frozen_way_sacrifice(blocks: &[BlockFaults]) -> u64 {
    (1 << frozen_worst_way(blocks)) | ways_where(blocks, BlockFaults::has_any_fault)
}

fn bit_fix_budget(geometry: &CacheGeometry) -> u64 {
    BitFixParams::for_block(geometry.word_bytes() * 8, geometry.words_per_block())
        .repair_word_budget
}

// ---------------------------------------------------------------------------
// Comparison.
// ---------------------------------------------------------------------------

/// Subblock lengths checked on a map of `blocks` blocks: every length from
/// 1 to 255, except on maps so large that the frozen walk would dominate the
/// suite in a debug build, where every length up to 65 and the few beyond.
fn subblock_lengths(blocks: u64) -> Vec<u8> {
    if blocks <= 4096 {
        (1..=u8::MAX).collect()
    } else {
        (1..=65).chain([96, 127, 128, 129, 200, 255]).collect()
    }
}

/// Asserts that `map` answers every question exactly as `frozen` does, and
/// that every repair scheme resolves it as the frozen per-set rules do.
fn assert_same(label: &str, map: &FaultMap, frozen: &FrozenMap) {
    let geometry = *map.geometry();
    assert_eq!(geometry, frozen.geometry, "{label}");
    let blocks: Vec<BlockFaults> = map.iter_blocks().collect();
    assert_eq!(blocks.len(), frozen.blocks.len(), "{label}");
    if let Some(i) = (0..blocks.len()).find(|&i| blocks[i] != frozen.blocks[i]) {
        panic!(
            "{label}: block {i} is {:?}, frozen {:?}",
            blocks[i], frozen.blocks[i]
        );
    }
    assert_eq!(map.stats(), frozen.stats(), "{label}");
    assert_eq!(
        map.fault_free_blocks(),
        frozen.fault_free_blocks(),
        "{label}"
    );
    for len in subblock_lengths(geometry.blocks()) {
        assert_eq!(
            map.word_disable_usable(len),
            frozen.word_disable_usable(len),
            "{label}: subblock of {len} words"
        );
    }

    let budget = bit_fix_budget(&geometry);
    let ways = geometry.associativity();
    let mut expected = [Vec::new(), Vec::new(), Vec::new()];
    assert_eq!(map.sets().len(), frozen.sets().len(), "{label}");
    for (set, (view, records)) in map.sets().zip(frozen.sets()).enumerate() {
        let set = set as u64;
        let label = format!("{label} set {set}");
        assert_eq!(view.faulty_ways(), frozen_block_disable(records), "{label}");
        assert_eq!(
            view.tag_faulty_ways(),
            ways_where(records, BlockFaults::tag_is_faulty),
            "{label}"
        );
        for limit in 0..=geometry.words_per_block() + 1 {
            let over = ways_where(records, |b| u64::from(b.faulty_word_count()) > limit);
            assert_eq!(
                view.ways_with_more_faulty_words_than(limit),
                over,
                "{label} limit {limit}"
            );
        }
        for (way, record) in records.iter().enumerate() {
            assert_eq!(view.block(way as u64), *record, "{label} way {way}");
            assert_eq!(map.block(set, way as u64), *record, "{label} way {way}");
            assert_eq!(
                view.faulty_word_count(way as u64),
                record.faulty_word_count(),
                "{label}"
            );
            assert_eq!(
                map.block_is_faulty(set, way as u64),
                record.has_any_fault(),
                "{label}"
            );
        }
        assert_eq!(
            map.usable_ways_in_set(set),
            frozen.usable_ways_in_set(set),
            "{label}"
        );
        expected[0].push(frozen_block_disable(records));
        expected[1].push(frozen_bit_fix(records, budget));
        expected[2].push(frozen_way_sacrifice(records));
    }

    for scheme in registry() {
        let resolved = scheme.repair(map);
        let capacity = scheme.effective_capacity(map);
        let rule = match DisablingScheme::from_name(scheme.name()) {
            Some(DisablingScheme::BlockDisabling) => &expected[0],
            Some(DisablingScheme::BitFix) => &expected[1],
            Some(DisablingScheme::WaySacrifice) => &expected[2],
            Some(DisablingScheme::WordDisabling) => {
                let usable = frozen.word_disable_usable(8) && geometry.halved().is_ok();
                assert_eq!(resolved.is_ok(), usable, "{label}: {}", scheme.name());
                assert_eq!(
                    capacity.ok(),
                    usable.then_some(0.5),
                    "{label}: {}",
                    scheme.name()
                );
                continue;
            }
            _ => {
                assert_eq!(capacity, Ok(1.0), "{label}: {}", scheme.name());
                continue;
            }
        };
        let mask = resolved.unwrap().disabled.unwrap();
        let mut usable = 0;
        for (set, &disabled) in rule.iter().enumerate() {
            for way in 0..ways {
                let off = disabled >> way & 1 == 1;
                assert_eq!(
                    mask.is_disabled(set as u64, way),
                    off,
                    "{label}: {} set {set} way {way}",
                    scheme.name()
                );
                usable += u64::from(!off);
            }
        }
        let fraction = usable as f64 / geometry.blocks() as f64;
        assert_eq!(capacity, Ok(fraction), "{label}: {}", scheme.name());
    }
}

/// Failure probabilities from a clean map to a fully faulty one.
const PFAILS: [f64; 6] = [0.0, 1e-4, 0.003, 0.05, 0.5, 1.0];

/// Every lane width (4- to 256-byte blocks: 1 to 64 words) against every
/// associativity from 1 to 64, with `sets` sets.
fn shapes(sets: u64) -> Vec<CacheGeometry> {
    let mut shapes = Vec::new();
    for block_bytes in [4, 8, 16, 32, 64, 128, 256] {
        for ways in [1, 2, 4, 8, 16, 32, 64] {
            shapes.push(
                CacheGeometry::new(sets * ways * block_bytes, block_bytes, ways, 24).unwrap(),
            );
        }
    }
    shapes
}

fn paper_geometries() -> [(&'static str, CacheGeometry); 3] {
    [
        ("L1", CacheGeometry::ispass2010_l1()),
        ("L2", CacheGeometry::ispass2010_l2()),
        ("victim", CacheGeometry::ispass2010_victim_cache()),
    ]
}

/// Generates the packed and the frozen map, compares them, and returns both.
fn checked(label: &str, geometry: &CacheGeometry, pfail: f64, seed: u64) -> (FaultMap, FrozenMap) {
    let map = FaultMap::generate(geometry, pfail, seed);
    let frozen = FrozenMap::generate(geometry, pfail, seed);
    assert_same(&format!("{label} pfail={pfail} seed={seed}"), &map, &frozen);
    (map, frozen)
}

// ---------------------------------------------------------------------------
// Tests.
// ---------------------------------------------------------------------------

#[test]
fn every_lane_width_and_associativity_matches_the_frozen_map() {
    for geometry in shapes(4) {
        for (i, &pfail) in PFAILS.iter().enumerate() {
            checked(&format!("{geometry}"), &geometry, pfail, 11 + i as u64);
        }
    }
}

#[test]
fn maps_of_fewer_than_64_bits_match_the_frozen_map() {
    // One set: a 1-way map of 1-word blocks holds a single bit in each
    // vector, and no vector of these reaches a whole word before 64 ways.
    for geometry in shapes(1) {
        for pfail in [0.05, 0.5] {
            checked(&format!("{geometry}"), &geometry, pfail, 3);
        }
    }
}

#[test]
fn the_paper_geometries_match_the_frozen_map() {
    for (name, geometry) in paper_geometries() {
        for &pfail in &PFAILS {
            // The L2's frozen walks are the slow part of this suite.
            if name == "L2" && pfail >= 0.5 {
                continue;
            }
            checked(name, &geometry, pfail, 7);
        }
    }
}

#[test]
fn unions_of_maps_match_the_frozen_union() {
    let mut geometries: Vec<(String, CacheGeometry)> =
        shapes(4).into_iter().map(|g| (g.to_string(), g)).collect();
    geometries.extend(paper_geometries().map(|(name, g)| (name.to_string(), g)));
    for (name, geometry) in geometries {
        let (a, frozen_a) = checked(&name, &geometry, 0.003, 21);
        let (b, frozen_b) = checked(&name, &geometry, 0.05, 22);
        let (clean, frozen_clean) = checked(&name, &geometry, 0.0, 23);
        let label = format!("{name} union");
        assert_same(&label, &a.union(&b), &frozen_a.union(&frozen_b));
        assert_same(&label, &b.union(&a), &frozen_b.union(&frozen_a));
        assert_same(&label, &a.union(&a), &frozen_a);
        assert_same(&label, &clean.union(&b), &frozen_clean.union(&frozen_b));
        assert_eq!(a.union(&b).pfail(), 0.05, "{label}");
        assert_eq!(a.union(&b).seed(), 21, "{label}");
    }
}

#[test]
fn maps_sampled_at_a_voltage_match_the_frozen_sampler() {
    let model = VariationModel::new(PfailVoltageModel::ispass2010(), 0.05, 4);
    let mut geometries: Vec<(String, CacheGeometry)> =
        shapes(8).into_iter().map(|g| (g.to_string(), g)).collect();
    geometries.extend(
        paper_geometries()
            .into_iter()
            .filter(|(name, _)| *name != "L2")
            .map(|(name, g)| (name.to_string(), g)),
    );
    for (name, geometry) in geometries {
        let die = DieVariation::sample(&geometry, &model, 5);
        for voltage in [0.45, 0.5, 0.6] {
            let map = FaultMap::generate_at_voltage(&die, voltage, 9);
            let frozen = FrozenMap::generate_at_voltage(&die, voltage, 9);
            assert_same(&format!("{name} at {voltage} V"), &map, &frozen);
        }
    }
}
