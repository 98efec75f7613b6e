//! Differential tests of the integer-threshold fault-map sampling kernel
//! against a frozen port of the `gen_bool` kernel it replaced.
//!
//! `FaultMap::generate` and `FaultMap::generate_at_voltage` now compare each
//! draw's top 53 bits against a per-block integer threshold
//! `ceil(p * 2^53)`, with the bridge's `log10(anchor)` and the word/tag
//! `ln(1 - p)` evaluated once where they used to be evaluated per block or
//! per probability. The claim is that every map is bit-identical to the old
//! one: the port below is the old path line for line — `sample_blocks` with
//! a per-(set, way) probability, `prob_any_fault`, `gen_bool` and the
//! `pfail(V)` formula — and every test compares whole maps.
//!
//! Random seeds almost never draw a value on a threshold, so one test builds
//! the boundary on purpose: it bisects for the two adjacent `pfail` values
//! between which a chosen draw flips from clean to faulty, and checks both.
//!
//! `generate_at_voltage` decides most draws against a band: the thresholds
//! of its tile's smallest and largest systematic offsets, widened by a
//! margin of `4 + t / 2^32` units. Only a block with a draw inside that band
//! computes its own thresholds. The comparisons below sweep dies from flat
//! to violently varying (sigma up to 0.2 on 1, 4 and 7 grid points) and
//! voltages where `pfail` saturates at 1 and at 0, and one test bisects the
//! supply voltage so that a draw sits on its block's threshold, inside the
//! band, where only the block's own thresholds decide it.

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use vccmin_core::fault::BlockFaults;
use vccmin_core::{
    CacheGeometry, DieVariation, FaultMap, PfailVoltageModel, VariationModel, YieldParams,
};

// ---------------------------------------------------------------------------
// Frozen port of the gen_bool sampling path.
// ---------------------------------------------------------------------------

/// Port of `rand`'s `gen_bool`: a 53-bit uniform in [0, 1) compared with `p`.
fn frozen_gen_bool(rng: &mut SmallRng, p: f64) -> bool {
    assert!((0.0..=1.0).contains(&p), "gen_bool: p = {p} not in [0, 1]");
    let uniform = (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
    uniform < p
}

/// Port of `prob_any_fault`: probability that `bits` cells hold a fault.
fn frozen_prob_any_fault(bits: u64, pfail: f64) -> f64 {
    if pfail <= 0.0 {
        0.0
    } else if pfail >= 1.0 {
        1.0
    } else {
        -f64::exp_m1(bits as f64 * f64::ln_1p(-pfail))
    }
}

fn word_bits(geometry: &CacheGeometry) -> u64 {
    geometry.word_bytes() * 8
}

fn tag_bits(geometry: &CacheGeometry) -> u64 {
    geometry.tag_bits() + geometry.meta_bits()
}

/// Port of `sample_blocks` with a per-(set, way) cell probability.
fn frozen_sample_blocks(
    geometry: &CacheGeometry,
    seed: u64,
    mut p_cell: impl FnMut(u64, u64) -> f64,
) -> Vec<BlockFaults> {
    let words_per_block = geometry.words_per_block() as u8;
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut blocks = Vec::with_capacity(geometry.blocks() as usize);
    for set in 0..geometry.sets() {
        for way in 0..geometry.associativity() {
            let p = p_cell(set, way);
            let p_word = frozen_prob_any_fault(word_bits(geometry), p);
            let p_tag = frozen_prob_any_fault(tag_bits(geometry), p);
            let mut mask = 0u64;
            for w in 0..words_per_block {
                if frozen_gen_bool(&mut rng, p_word) {
                    mask |= 1 << w;
                }
            }
            let tag_faulty = frozen_gen_bool(&mut rng, p_tag);
            blocks.push(BlockFaults::new(words_per_block, mask, tag_faulty));
        }
    }
    blocks
}

/// Port of `PfailVoltageModel::pfail`, anchor logarithm taken per call.
fn frozen_pfail(model: &PfailVoltageModel, v: f64) -> f64 {
    assert!(!v.is_nan(), "voltage must not be NaN");
    let log10_p = model.anchor_pfail.log10() - model.decades_per_volt * (v - model.anchor_voltage);
    10f64.powf(log10_p).clamp(0.0, 1.0)
}

fn frozen_generate(geometry: &CacheGeometry, pfail: f64, seed: u64) -> Vec<BlockFaults> {
    frozen_sample_blocks(geometry, seed, |_, _| pfail)
}

fn frozen_generate_at_voltage(die: &DieVariation, voltage: f64, seed: u64) -> Vec<BlockFaults> {
    let model = die.model().pfail_voltage;
    frozen_sample_blocks(die.geometry(), seed, |set, way| {
        frozen_pfail(&model, voltage - die.systematic_offset(set, way))
    })
}

// ---------------------------------------------------------------------------
// Helpers.
// ---------------------------------------------------------------------------

fn geometries() -> [(&'static str, CacheGeometry); 3] {
    [
        ("L1", CacheGeometry::ispass2010_l1()),
        ("L2", CacheGeometry::ispass2010_l2()),
        ("victim", CacheGeometry::ispass2010_victim_cache()),
    ]
}

/// Whether `map` holds exactly the frozen blocks; the error names the first
/// block that differs.
fn same_blocks(map: &FaultMap, frozen: &[BlockFaults]) -> Result<(), String> {
    let blocks: Vec<BlockFaults> = map.iter_blocks().collect();
    if blocks.len() != frozen.len() {
        return Err(format!("{} blocks, frozen {}", blocks.len(), frozen.len()));
    }
    match blocks.iter().zip(frozen).position(|(a, b)| a != b) {
        Some(i) => Err(format!(
            "block {i}: {:?}, frozen {:?}",
            blocks[i], frozen[i]
        )),
        None => Ok(()),
    }
}

fn assert_generate_matches(name: &str, geometry: &CacheGeometry, pfail: f64, seed: u64) {
    let map = FaultMap::generate(geometry, pfail, seed);
    if let Err(e) = same_blocks(&map, &frozen_generate(geometry, pfail, seed)) {
        panic!("{name} pfail={pfail:e} seed={seed}: {e}");
    }
}

fn assert_at_voltage_matches(name: &str, die: &DieVariation, voltage: f64, seed: u64) -> FaultMap {
    let map = FaultMap::generate_at_voltage(die, voltage, seed);
    if let Err(e) = same_blocks(&map, &frozen_generate_at_voltage(die, voltage, seed)) {
        panic!(
            "{name} sigma={} V={voltage} die={} seed={seed}: {e}",
            die.model().sigma_systematic,
            die.seed()
        );
    }
    map
}

fn model(sigma_systematic: f64, grid_points: usize) -> VariationModel {
    VariationModel::new(
        PfailVoltageModel::ispass2010(),
        sigma_systematic,
        grid_points,
    )
}

/// Systematic sigmas from a flat die to one whose offsets span several
/// decades of `pfail`.
const SIGMAS: [f64; 4] = [0.0, 0.0125, 0.05, 0.2];

/// Correlation grids from a die-wide shift to a fine field.
const GRID_POINTS: [usize; 3] = [1, 4, 7];

/// Supplies so high that `pfail(V - s)` underflows to exactly 0 for every
/// offset `s` these dies have (even sigma 0.2 keeps `|s|` well below 1).
const ALL_CLEAN: [f64; 2] = [20.0, f64::INFINITY];

/// Supplies so low that `pfail(V - s)` clamps to exactly 1 for every offset.
const ALL_FAULTY: [f64; 2] = [-2.0, f64::NEG_INFINITY];

/// `2^-k` as an exact `f64`.
fn pow2_neg(k: i32) -> f64 {
    2f64.powi(-k)
}

// ---------------------------------------------------------------------------
// Tests.
// ---------------------------------------------------------------------------

#[test]
fn generate_matches_the_frozen_kernel_at_edge_probabilities() {
    let ulp53 = pow2_neg(53);
    let pfails = [
        0.0,
        1.0,
        pow2_neg(60),
        ulp53,
        3.0 * ulp53,
        1_000_003.0 * ulp53,
        (1u64 << 40) as f64 * ulp53,
        1e-3,
        1e-2,
        0.5,
        1.0 - ulp53,
    ];
    for (name, geometry) in geometries() {
        for &pfail in &pfails {
            for seed in [0, 1, 0xdead_beef] {
                assert_generate_matches(name, &geometry, pfail, seed);
            }
        }
    }
}

#[test]
fn generate_at_voltage_matches_the_frozen_kernel_on_between_and_outside_the_grid() {
    let grid = YieldParams::quick().voltage_grid();
    let between: Vec<f64> = grid.windows(2).map(|w| (w[0] + w[1]) / 2.0).collect();
    let outside = [0.2, 0.4, 0.5123456, 0.75, 1.0, 3.0];
    let voltages: Vec<f64> = grid
        .iter()
        .chain(&between)
        .chain(&outside)
        .chain(&ALL_CLEAN)
        .chain(&ALL_FAULTY)
        .copied()
        .collect();
    let all_faulty = |g: &CacheGeometry| (g.blocks() * g.words_per_block(), g.blocks());
    for (name, geometry) in geometries() {
        for sigma in SIGMAS {
            for grid_points in GRID_POINTS {
                let die = DieVariation::sample(&geometry, &model(sigma, grid_points), 41);
                for &v in &voltages {
                    let stats = assert_at_voltage_matches(name, &die, v, 77).stats();
                    let faults = (stats.faulty_words, stats.faulty_tags);
                    if ALL_CLEAN.contains(&v) {
                        assert_eq!(faults, (0, 0), "{name} sigma={sigma} V={v}");
                    } else if ALL_FAULTY.contains(&v) {
                        assert_eq!(faults, all_faulty(&geometry), "{name} sigma={sigma} V={v}");
                    }
                }
            }
        }
    }
}

/// The first `seeds` map seeds (scanning up from 0) whose draw number
/// `draw` (0-based) has its top 53 bits in `[1, below)`, with those bits.
/// A small draw makes the threshold land strictly between two integers at
/// the flip, where `floor` and `ceil` differ.
fn seeds_with_small_draw(draw: usize, seeds: usize, below: u64) -> Vec<(u64, u64)> {
    (0u64..)
        .filter_map(|seed| {
            let mut rng = SmallRng::seed_from_u64(seed);
            let x = (0..=draw).map(|_| rng.next_u64() >> 11).last()?;
            (1..below).contains(&x).then_some((seed, x))
        })
        .take(seeds)
        .collect()
}

/// The two adjacent `pfail` values `(lo, hi)` between which the frozen
/// `gen_bool(prob_any_fault(bits, pfail))` on a draw with top bits `x` turns
/// true: bisection over the bit patterns of `[0, 1]`, where the probability
/// is monotone in `pfail`.
fn flip_pfails(bits: u64, x: u64) -> (f64, f64) {
    let faulty = |pfail: f64| (x as f64) * pow2_neg(53) < frozen_prob_any_fault(bits, pfail);
    let (mut lo, mut hi) = (0f64.to_bits(), 1f64.to_bits());
    assert!(!faulty(f64::from_bits(lo)) && faulty(f64::from_bits(hi)));
    while hi - lo > 1 {
        let mid = lo + (hi - lo) / 2;
        if faulty(f64::from_bits(mid)) {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    (f64::from_bits(lo), f64::from_bits(hi))
}

/// Asserts the boundary premise: at `lo` the scaled probability sits in
/// `(x - 1, x]`, so `ceil` is `x` and a `<=` comparison would flip the draw;
/// at `hi` it sits in `(x, x + 1)`, so `floor` is `x` and would not.
fn assert_real_boundary(bits: u64, x: u64, (lo, hi): (f64, f64)) {
    let scaled = |pfail: f64| frozen_prob_any_fault(bits, pfail) * (1u64 << 53) as f64;
    let x = x as f64;
    assert!(
        scaled(lo) > x - 1.0 && scaled(lo) <= x,
        "lo: {} vs {x}",
        scaled(lo)
    );
    assert!(
        scaled(hi) > x && scaled(hi) < x + 1.0,
        "hi: {} vs {x}",
        scaled(hi)
    );
}

#[test]
fn thresholds_decide_exactly_where_gen_bool_flips() {
    for (name, geometry) in geometries() {
        let words = geometry.words_per_block() as usize;
        // Block 0's first word draw, then its tag draw (after every word).
        for (draw, bits) in [(0, word_bits(&geometry)), (words, tag_bits(&geometry))] {
            for (seed, x) in seeds_with_small_draw(draw, 3, 1 << 50) {
                let (lo, hi) = flip_pfails(bits, x);
                assert_real_boundary(bits, x, (lo, hi));
                let frozen_lo = &frozen_generate(&geometry, lo, seed)[0];
                let frozen_hi = &frozen_generate(&geometry, hi, seed)[0];
                if draw == 0 {
                    assert!(!frozen_lo.word_is_faulty(0) && frozen_hi.word_is_faulty(0));
                } else {
                    assert!(!frozen_lo.tag_is_faulty() && frozen_hi.tag_is_faulty());
                }
                assert_generate_matches(name, &geometry, lo, seed);
                assert_generate_matches(name, &geometry, hi, seed);
            }
        }
    }
}

/// The frozen integer threshold `ceil(p * 2^53)` at supply `voltage` of a
/// group of `bits` cells in a block with systematic offset `offset`.
fn frozen_threshold(model: &PfailVoltageModel, offset: f64, bits: u64, voltage: f64) -> u64 {
    let p = frozen_prob_any_fault(bits, frozen_pfail(model, voltage - offset));
    (p * (1u64 << 53) as f64).ceil() as u64
}

/// The two adjacent supplies `(faulty, clean)` between which a draw with top
/// bits `x` turns from faulty to clean, for a group of `bits` cells in a
/// block with systematic offset `offset`: bisection over the bit patterns of
/// `[0, 3]` V, where the frozen threshold falls as the supply rises.
fn flip_voltages(model: &PfailVoltageModel, offset: f64, bits: u64, x: u64) -> (f64, f64) {
    let faulty = |v: f64| x < frozen_threshold(model, offset, bits, v);
    let (mut lo, mut hi) = (0f64.to_bits(), 3f64.to_bits());
    assert!(faulty(f64::from_bits(lo)) && !faulty(f64::from_bits(hi)));
    while hi - lo > 1 {
        let mid = lo + (hi - lo) / 2;
        if faulty(f64::from_bits(mid)) {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    (f64::from_bits(lo), f64::from_bits(hi))
}

#[test]
fn a_draw_on_its_block_threshold_is_decided_inside_the_band() {
    for (name, geometry) in geometries() {
        let words = geometry.words_per_block() as usize;
        let die = DieVariation::sample(&geometry, &model(0.05, 4), 8);
        let bridge = die.model().pfail_voltage;
        let offset = die.systematic_offset(0, 0);
        // Block 0's first word draw, then its tag draw.
        for (draw, bits) in [(0, word_bits(&geometry)), (words, tag_bits(&geometry))] {
            for (seed, x) in seeds_with_small_draw(draw, 2, 1 << 40) {
                let (faulty_v, clean_v) = flip_voltages(&bridge, offset, bits, x);
                // The draw sits on block 0's threshold: one unit below it at
                // the faulty supply, equal to it at the clean one. A band
                // reaches at least 4 units past every threshold it holds, so
                // the draw is strictly inside block 0's band at both
                // supplies, and a decision by either band edge alone would be
                // wrong at one of them.
                assert_eq!(frozen_threshold(&bridge, offset, bits, faulty_v), x + 1);
                assert_eq!(frozen_threshold(&bridge, offset, bits, clean_v), x);
                let faulty = FaultMap::generate_at_voltage(&die, faulty_v, seed);
                let clean = FaultMap::generate_at_voltage(&die, clean_v, seed);
                let (faulty, clean) = (faulty.block(0, 0), clean.block(0, 0));
                if draw == 0 {
                    assert!(
                        faulty.word_is_faulty(0) && !clean.word_is_faulty(0),
                        "{name}"
                    );
                } else {
                    assert!(faulty.tag_is_faulty() && !clean.tag_is_faulty(), "{name}");
                }
                assert_at_voltage_matches(name, &die, faulty_v, seed);
                assert_at_voltage_matches(name, &die, clean_v, seed);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random dies, map seeds, voltages and probabilities: both entry points
    /// reproduce the frozen kernel map for map. About one case in eight
    /// takes a supply where every block's `pfail` saturates at 0, and one in
    /// eight one where it saturates at 1; the voltage range itself reaches
    /// below 0.35 V, where flat dies saturate at 1 too.
    #[test]
    fn random_maps_match_the_frozen_kernel(
        die_seed in any::<u64>(),
        map_seed in any::<u64>(),
        voltage in 0.1f64..0.9,
        saturation in 0usize..8,
        pfail in 0.0f64..0.05,
        sigma_index in 0usize..4,
        points_index in 0usize..3,
        geometry_index in 0usize..3,
    ) {
        let (name, geometry) = geometries()[geometry_index];
        let voltage = match saturation {
            0 => ALL_CLEAN[0],
            1 => ALL_FAULTY[0],
            _ => voltage,
        };
        let model = model(SIGMAS[sigma_index], GRID_POINTS[points_index]);
        let die = DieVariation::sample(&geometry, &model, die_seed);
        let at_voltage = FaultMap::generate_at_voltage(&die, voltage, map_seed);
        let result = same_blocks(&at_voltage, &frozen_generate_at_voltage(&die, voltage, map_seed));
        prop_assert!(result.is_ok(), "{name} {model:?} at V={voltage}: {result:?}");
        let iid = FaultMap::generate(&geometry, pfail, map_seed);
        let result = same_blocks(&iid, &frozen_generate(&geometry, pfail, map_seed));
        prop_assert!(result.is_ok(), "{name} at pfail={pfail}: {result:?}");
    }
}
