//! Analysis of the word-disabling scheme of Wilkerson et al. (ISCA 2008),
//! as reviewed in Sections II and IV.A of the paper (Eqs. 4 and 5, Fig. 5).
//!
//! Word-disabling merges each pair of physical blocks into one logical block at low
//! voltage: capacity and associativity are halved, and each 8-word subblock may
//! tolerate at most 4 faulty words. If *any* subblock in the cache exceeds that
//! budget the whole cache is unusable below Vcc-min — the probability of that event
//! (`pwcf`) is what Fig. 5 plots.
//!
//! Note on Eq. 4: the ISPASS 2010 text prints the whole-cache-failure probability as
//! `1 - (phbf)^(d*2)`; the intended formula (and the one that matches the numbers
//! quoted in the text, ~1e-3 at `pfail = 0.001` and ~1e-2 at `pfail = 0.0015`) is
//! `1 - (1 - phbf)^(d*2)`: the cache survives only if *every* one of the `2d`
//! subblocks stays within its fault budget. We implement the corrected form.

use crate::block_faults::prob_at_least_one_fault;
use crate::combinatorics::binomial_sf;
use crate::geometry::ArrayGeometry;

/// Parameters of the word-disable organization.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct WordDisableParams {
    /// Word size in bits (32 in the paper).
    pub word_bits: u64,
    /// Words per subblock (8 in the paper); up to half of them may be faulty.
    pub words_per_subblock: u64,
}

impl WordDisableParams {
    /// The configuration used throughout the paper: 32-bit words, 8-word subblocks.
    #[must_use]
    pub fn ispass2010() -> Self {
        Self {
            word_bits: 32,
            words_per_subblock: 8,
        }
    }

    /// Maximum number of faulty words tolerated per subblock (`a / 2`).
    #[must_use]
    pub fn max_faulty_words(&self) -> u64 {
        self.words_per_subblock / 2
    }
}

impl Default for WordDisableParams {
    fn default() -> Self {
        Self::ispass2010()
    }
}

/// Probability that a single word is faulty: `pwf = 1 - (1 - pfail)^word_bits`.
#[must_use]
pub fn word_fault_probability(params: &WordDisableParams, pfail: f64) -> f64 {
    prob_at_least_one_fault(params.word_bits, pfail)
}

/// Probability that a subblock ("half block") contains more faulty words than
/// word-disabling can repair (Eq. 5):
/// `phbf = Σ_{i=a/2+1}^{a} C(a, i) pwf^i (1 - pwf)^(a-i)`.
#[must_use]
pub fn subblock_failure_probability(params: &WordDisableParams, pfail: f64) -> f64 {
    let pwf = word_fault_probability(params, pfail);
    binomial_sf(params.words_per_subblock, params.max_faulty_words(), pwf)
}

/// Number of subblocks in the cache: each block holds `block_bits / (word_bits *
/// words_per_subblock)` subblocks; for the paper's 64 B block and 8-word subblocks
/// that is 2 per block, i.e. `2d` subblocks total.
#[must_use]
pub fn subblocks_in_cache(geometry: &ArrayGeometry, params: &WordDisableParams) -> u64 {
    let subblock_bits = params.word_bits * params.words_per_subblock;
    let per_block = (geometry.data_bits_per_block() / subblock_bits).max(1);
    geometry.blocks() * per_block
}

/// Probability that the whole cache is unusable at low voltage under word-disabling
/// (corrected Eq. 4): `pwcf = 1 - (1 - phbf)^(number of subblocks)`.
#[must_use]
pub fn whole_cache_failure_probability(
    geometry: &ArrayGeometry,
    params: &WordDisableParams,
    pfail: f64,
) -> f64 {
    let phbf = subblock_failure_probability(params, pfail);
    let n = subblocks_in_cache(geometry, params);
    if phbf <= 0.0 {
        return 0.0;
    }
    -f64::exp_m1(n as f64 * f64::ln_1p(-phbf))
}

/// Effective capacity of a *usable* word-disabled cache at low voltage: always 1/2
/// (half of the blocks' data is given up to repair the other half).
#[must_use]
pub fn usable_capacity() -> f64 {
    0.5
}

/// Expected capacity of word-disabling accounting for whole-cache failures (a failed
/// cache contributes zero capacity). Useful for comparing against block-disabling.
#[must_use]
pub fn expected_capacity(
    geometry: &ArrayGeometry,
    params: &WordDisableParams,
    pfail: f64,
) -> f64 {
    usable_capacity() * (1.0 - whole_cache_failure_probability(geometry, params, pfail))
}

/// One point of the Fig. 5 sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FailureSweepPoint {
    /// Per-cell probability of failure.
    pub pfail: f64,
    /// Probability that a word is faulty.
    pub word_fault_probability: f64,
    /// Probability that a subblock exceeds its repair budget.
    pub subblock_failure_probability: f64,
    /// Probability that the whole cache is unusable below Vcc-min.
    pub whole_cache_failure_probability: f64,
}

/// Sweeps `pfail` from 0 to `max_pfail` and returns the whole-cache-failure series
/// of Fig. 5 (plus the intermediate probabilities, useful for diagnostics).
#[must_use]
pub fn sweep_whole_cache_failure(
    geometry: &ArrayGeometry,
    params: &WordDisableParams,
    max_pfail: f64,
    steps: usize,
) -> Vec<FailureSweepPoint> {
    assert!(steps >= 2, "a sweep needs at least two points");
    (0..steps)
        .map(|i| {
            let pfail = max_pfail * i as f64 / (steps - 1) as f64;
            FailureSweepPoint {
                pfail,
                word_fault_probability: word_fault_probability(params, pfail),
                subblock_failure_probability: subblock_failure_probability(params, pfail),
                whole_cache_failure_probability: whole_cache_failure_probability(
                    geometry, params, pfail,
                ),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn paper_setup() -> (ArrayGeometry, WordDisableParams) {
        (ArrayGeometry::ispass2010_l1(), WordDisableParams::ispass2010())
    }

    #[test]
    fn word_fault_probability_matches_closed_form() {
        let (_, params) = paper_setup();
        let p = word_fault_probability(&params, 0.001);
        let expected = 1.0 - 0.999_f64.powi(32);
        assert!((p - expected).abs() < 1e-12);
    }

    #[test]
    fn paper_subblock_count_is_two_per_block() {
        let (geom, params) = paper_setup();
        assert_eq!(subblocks_in_cache(&geom, &params), 1024);
    }

    #[test]
    fn whole_cache_failure_near_paper_values() {
        // "when pfail is 0.001 the probability is small, almost 1 in 1000 caches are
        //  unfit. But, when pfail grows to 0.0015 the cache failure probability
        //  increases by a factor of 10 to 1 out of 100."
        let (geom, params) = paper_setup();
        let p_001 = whole_cache_failure_probability(&geom, &params, 0.001);
        let p_0015 = whole_cache_failure_probability(&geom, &params, 0.0015);
        assert!(
            (5e-4..5e-3).contains(&p_001),
            "pwcf at pfail=0.001 should be ~1e-3, got {p_001}"
        );
        assert!(
            (5e-3..5e-2).contains(&p_0015),
            "pwcf at pfail=0.0015 should be ~1e-2, got {p_0015}"
        );
        assert!(
            p_0015 / p_001 > 5.0,
            "an order-of-magnitude jump is expected ({p_001} -> {p_0015})"
        );
    }

    #[test]
    fn zero_pfail_never_fails() {
        let (geom, params) = paper_setup();
        assert_eq!(whole_cache_failure_probability(&geom, &params, 0.0), 0.0);
        assert_eq!(subblock_failure_probability(&params, 0.0), 0.0);
        assert_eq!(expected_capacity(&geom, &params, 0.0), 0.5);
    }

    #[test]
    fn certain_cell_failure_dooms_the_cache() {
        let (geom, params) = paper_setup();
        let p = whole_cache_failure_probability(&geom, &params, 1.0);
        assert!((p - 1.0).abs() < 1e-12);
        assert!(expected_capacity(&geom, &params, 1.0) < 1e-12);
    }

    #[test]
    fn failure_probability_is_monotone_in_pfail() {
        let (geom, params) = paper_setup();
        let sweep = sweep_whole_cache_failure(&geom, &params, 0.002, 41);
        for pair in sweep.windows(2) {
            assert!(
                pair[1].whole_cache_failure_probability
                    >= pair[0].whole_cache_failure_probability
            );
            assert!(pair[1].word_fault_probability >= pair[0].word_fault_probability);
        }
    }

    #[test]
    fn max_faulty_words_is_half_the_subblock() {
        assert_eq!(WordDisableParams::ispass2010().max_faulty_words(), 4);
        let params = WordDisableParams {
            word_bits: 32,
            words_per_subblock: 16,
        };
        assert_eq!(params.max_faulty_words(), 8);
    }

    #[test]
    fn larger_subblocks_fail_less_often_at_same_pfail() {
        // With more words per subblock the tolerated fraction stays 50%, so the law of
        // large numbers makes exceeding the budget less likely for small pwf.
        let geom = ArrayGeometry::ispass2010_l1();
        let small = WordDisableParams {
            word_bits: 32,
            words_per_subblock: 4,
        };
        let large = WordDisableParams {
            word_bits: 32,
            words_per_subblock: 8,
        };
        let p_small = whole_cache_failure_probability(&geom, &small, 0.001);
        let p_large = whole_cache_failure_probability(&geom, &large, 0.001);
        assert!(p_small > p_large);
    }
}
