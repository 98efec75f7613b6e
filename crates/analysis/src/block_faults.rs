//! Expected number of faulty blocks in an array with random cell faults.
//!
//! Implements Equations 1 and 2 of the paper and the data behind Figures 3 and 6.
//!
//! The problem is modeled as drawing `n` balls (faults) without replacement from an
//! urn with `d * k` balls of `d` colors (blocks), `k` balls per color. The mean
//! number of distinct colors drawn — i.e. distinct blocks containing at least one
//! faulty cell — is given by Yao's formula (Eq. 1). For a fixed per-cell failure
//! probability `pfail` the same quantity is approximated by Eq. 2:
//! `u = d - d * (1 - pfail)^k`.

use crate::error::AnalysisError;
use crate::geometry::ArrayGeometry;
use crate::CellPfail;

/// Mean number of distinct faulty blocks when exactly `faults` cells are faulty
/// (Eq. 1, Yao's formula).
///
/// The formula is
/// `u = d - d * Π_{i=0}^{k-1} (1 - n / (dk - i))`
/// where `d` is the number of blocks, `k` the cells per block and `n` the number of
/// faulty cells.
///
/// # Errors
///
/// Returns [`AnalysisError::TooManyFaults`] if `faults` exceeds the number of cells
/// in the array.
///
/// # Examples
///
/// The paper's running example: 275 faults in a 512-block, 537-cell/block array are
/// expected to land in about 213 distinct blocks.
///
/// ```
/// use vccmin_analysis::{ArrayGeometry, block_faults};
///
/// let geom = ArrayGeometry::ispass2010_l1();
/// let u = block_faults::mean_faulty_blocks_exact(&geom, 275)?;
/// assert!((u - 213.0).abs() < 1.0);
/// # Ok::<(), vccmin_analysis::AnalysisError>(())
/// ```
pub fn mean_faulty_blocks_exact(
    geometry: &ArrayGeometry,
    faults: u64,
) -> Result<f64, AnalysisError> {
    let d = geometry.blocks() as f64;
    let k = geometry.cells_per_block();
    let dk = geometry.total_cells();
    if faults > dk {
        return Err(AnalysisError::TooManyFaults {
            requested: faults,
            cells: dk,
        });
    }
    let n = faults as f64;
    let dk = dk as f64;
    // Product computed in log space to stay accurate for large k.
    let mut log_prod = 0.0_f64;
    for i in 0..k {
        let term = 1.0 - n / (dk - i as f64);
        if term <= 0.0 {
            // Every block is guaranteed to contain a fault.
            return Ok(d);
        }
        log_prod += term.ln();
    }
    Ok(d - d * log_prod.exp())
}

/// Mean number of distinct faulty blocks for a fixed per-cell failure probability
/// (Eq. 2): `u = d - d * (1 - pfail)^k`.
#[must_use]
pub fn mean_faulty_blocks(geometry: &ArrayGeometry, pfail: f64) -> f64 {
    let d = geometry.blocks() as f64;
    d * block_fault_probability(geometry, pfail)
}

/// Probability that a single block (data + tag + metadata cells) contains at least
/// one faulty cell: `pbf = 1 - (1 - pfail)^k`.
#[must_use]
pub fn block_fault_probability(geometry: &ArrayGeometry, pfail: f64) -> f64 {
    prob_at_least_one_fault(geometry.cells_per_block(), pfail)
}

/// Probability that a group of `cells` cells contains at least one faulty cell.
#[must_use]
pub fn prob_at_least_one_fault(cells: u64, pfail: f64) -> f64 {
    if pfail <= 0.0 {
        return 0.0;
    }
    if pfail >= 1.0 {
        return 1.0;
    }
    // 1 - (1-p)^k computed via expm1/ln_1p for accuracy at small p.
    -f64::exp_m1(cells as f64 * f64::ln_1p(-pfail))
}

/// Mean fraction of faulty blocks (the y-axis of Fig. 3): `u / d`.
#[must_use]
pub fn mean_faulty_block_fraction(geometry: &ArrayGeometry, pfail: f64) -> f64 {
    block_fault_probability(geometry, pfail)
}

/// Mean cache capacity under block-disabling: the fraction of blocks with no faults,
/// `(1 - pfail)^k`.
#[must_use]
pub fn mean_capacity(geometry: &ArrayGeometry, pfail: f64) -> f64 {
    1.0 - block_fault_probability(geometry, pfail)
}

/// The `pfail` at which the *mean* block-disable capacity drops to a target fraction.
///
/// The paper observes that the running-example cache retains more than half of its
/// capacity as long as `pfail < 0.0013`; this function solves for that crossover by
/// inverting `(1 - pfail)^k = target`.
///
/// # Panics
///
/// Panics (in debug builds) if `target` is not in `(0, 1]`.
#[must_use]
pub fn pfail_for_capacity(geometry: &ArrayGeometry, target: f64) -> f64 {
    debug_assert!(target > 0.0 && target <= 1.0);
    let k = geometry.cells_per_block() as f64;
    1.0 - target.powf(1.0 / k)
}

/// One point of a capacity/fault sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SweepPoint {
    /// Per-cell probability of failure.
    pub pfail: f64,
    /// Mean fraction of faulty blocks (`u / d`).
    pub faulty_block_fraction: f64,
    /// Mean remaining capacity (`1 - u / d`).
    pub capacity: f64,
}

/// Sweeps `pfail` from 0 to `max_pfail` in `steps` evenly spaced points and returns
/// the mean faulty-block fraction and capacity at each point.
///
/// This regenerates the series of Fig. 3 (faulty-block fraction vs `pfail`) when
/// called with the paper's L1 geometry and `max_pfail = 0.01`.
#[must_use]
pub fn sweep_pfail(geometry: &ArrayGeometry, max_pfail: f64, steps: usize) -> Vec<SweepPoint> {
    assert!(steps >= 2, "a sweep needs at least two points");
    (0..steps)
        .map(|i| {
            let pfail = max_pfail * i as f64 / (steps - 1) as f64;
            let f = mean_faulty_block_fraction(geometry, pfail);
            SweepPoint {
                pfail,
                faulty_block_fraction: f,
                capacity: 1.0 - f,
            }
        })
        .collect()
}

/// One series of Fig. 6: capacity vs `pfail` for a specific block size, holding the
/// total cache size constant.
#[derive(Debug, Clone, PartialEq)]
pub struct BlockSizeSeries {
    /// Block size in bytes for this series.
    pub block_bytes: u64,
    /// Capacity points over the sweep.
    pub points: Vec<SweepPoint>,
}

/// Regenerates the data of Fig. 6: block-disable capacity as a function of `pfail`
/// for several block sizes at constant total cache size.
///
/// # Errors
///
/// Returns an error if a requested block size does not evenly divide the cache's
/// data capacity.
pub fn block_size_sensitivity(
    geometry: &ArrayGeometry,
    block_sizes_bytes: &[u64],
    max_pfail: f64,
    steps: usize,
) -> Result<Vec<BlockSizeSeries>, AnalysisError> {
    block_sizes_bytes
        .iter()
        .map(|&bs| {
            let g = geometry.with_block_bytes(bs)?;
            Ok(BlockSizeSeries {
                block_bytes: bs,
                points: sweep_pfail(&g, max_pfail, steps),
            })
        })
        .collect()
}

/// Convenience wrapper taking a validated [`CellPfail`].
#[must_use]
pub fn mean_capacity_at(geometry: &ArrayGeometry, pfail: CellPfail) -> f64 {
    mean_capacity(geometry, pfail.value())
}

/// Expected number of faulty cells in the whole array at a given `pfail`
/// (`d * k * pfail`), e.g. ~275 for the paper's L1 at `pfail = 0.001`.
#[must_use]
pub fn expected_faulty_cells(geometry: &ArrayGeometry, pfail: f64) -> f64 {
    geometry.total_cells() as f64 * pfail
}

/// Mean number of faulty blocks computed through the exact urn model at the expected
/// fault count — used to validate that Eq. 2 approximates Eq. 1 well.
///
/// # Errors
///
/// Propagates [`AnalysisError::TooManyFaults`] from the exact formula.
pub fn mean_faulty_blocks_urn_at_expected_faults(
    geometry: &ArrayGeometry,
    pfail: f64,
) -> Result<f64, AnalysisError> {
    let faults = expected_faulty_cells(geometry, pfail).round() as u64;
    mean_faulty_blocks_exact(geometry, faults)
}

/// Relative error between the exact urn model (Eq. 1) and the fixed-`pfail`
/// approximation (Eq. 2) at the expected number of faults.
///
/// # Errors
///
/// Propagates errors from the exact formula.
pub fn approximation_relative_error(
    geometry: &ArrayGeometry,
    pfail: f64,
) -> Result<f64, AnalysisError> {
    let exact = mean_faulty_blocks_urn_at_expected_faults(geometry, pfail)?;
    let approx = mean_faulty_blocks(geometry, pfail);
    if exact == 0.0 {
        return Ok((approx - exact).abs());
    }
    Ok(((approx - exact) / exact).abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    const TOL: f64 = 1e-9;

    #[test]
    fn paper_running_example_275_faults_in_213_blocks() {
        // "If 1 out of 1000 cells are faulty, there will be 275 faulty cells that,
        //  according to Eq. 1, are expected to occur in 213 distinct blocks."
        let geom = ArrayGeometry::ispass2010_l1();
        let n = expected_faulty_cells(&geom, 0.001).round() as u64;
        assert_eq!(n, 275);
        let u = mean_faulty_blocks_exact(&geom, n).unwrap();
        assert!(
            (u - 213.0).abs() < 1.0,
            "expected ~213 distinct faulty blocks, got {u}"
        );
    }

    #[test]
    fn zero_faults_means_zero_faulty_blocks() {
        let geom = ArrayGeometry::ispass2010_l1();
        assert_eq!(mean_faulty_blocks_exact(&geom, 0).unwrap(), 0.0);
        assert_eq!(mean_faulty_blocks(&geom, 0.0), 0.0);
        assert_eq!(mean_capacity(&geom, 0.0), 1.0);
    }

    #[test]
    fn all_cells_faulty_means_all_blocks_faulty() {
        let geom = ArrayGeometry::ispass2010_l1();
        let u = mean_faulty_blocks_exact(&geom, geom.total_cells()).unwrap();
        assert!((u - geom.blocks() as f64).abs() < TOL);
        assert!((mean_faulty_blocks(&geom, 1.0) - geom.blocks() as f64).abs() < TOL);
        assert_eq!(mean_capacity(&geom, 1.0), 0.0);
    }

    #[test]
    fn too_many_faults_is_an_error() {
        let geom = ArrayGeometry::ispass2010_l1();
        assert!(matches!(
            mean_faulty_blocks_exact(&geom, geom.total_cells() + 1),
            Err(AnalysisError::TooManyFaults { .. })
        ));
    }

    #[test]
    fn eq2_approximates_eq1_within_one_percent_for_small_pfail() {
        let geom = ArrayGeometry::ispass2010_l1();
        // The comparison rounds the expected fault count to an integer, so restrict the
        // check to pfail values where that rounding error is negligible (>=100 faults).
        for &p in &[0.0005, 0.001, 0.002, 0.005, 0.01] {
            let err = approximation_relative_error(&geom, p).unwrap();
            assert!(err < 0.01, "pfail={p}: relative error {err} too large");
        }
    }

    #[test]
    fn capacity_crossover_near_paper_value() {
        // "block-disabling offers more than half cache capacity when pfail is less
        //  than 0.0013"
        let geom = ArrayGeometry::ispass2010_l1();
        let crossover = pfail_for_capacity(&geom, 0.5);
        assert!(
            (0.0012..0.0014).contains(&crossover),
            "50% capacity crossover should be near 0.0013, got {crossover}"
        );
        assert!(mean_capacity(&geom, 0.001) > 0.5);
        assert!(mean_capacity(&geom, 0.002) < 0.5);
    }

    #[test]
    fn faulty_fraction_monotonically_increases_with_pfail() {
        let geom = ArrayGeometry::ispass2010_l1();
        let sweep = sweep_pfail(&geom, 0.01, 101);
        assert_eq!(sweep.len(), 101);
        for pair in sweep.windows(2) {
            assert!(pair[1].faulty_block_fraction >= pair[0].faulty_block_fraction);
            assert!(pair[1].capacity <= pair[0].capacity);
        }
        assert_eq!(sweep[0].pfail, 0.0);
        assert!((sweep.last().unwrap().pfail - 0.01).abs() < TOL);
    }

    #[test]
    fn smaller_blocks_retain_more_capacity() {
        // Fig. 6: at equal pfail, 32B blocks keep more capacity than 64B, which keep
        // more than 128B.
        let geom = ArrayGeometry::ispass2010_l1();
        let series = block_size_sensitivity(&geom, &[32, 64, 128], 0.005, 21).unwrap();
        assert_eq!(series.len(), 3);
        for i in 1..series[0].points.len() {
            let c32 = series[0].points[i].capacity;
            let c64 = series[1].points[i].capacity;
            let c128 = series[2].points[i].capacity;
            assert!(c32 > c64, "32B should beat 64B at point {i}");
            assert!(c64 > c128, "64B should beat 128B at point {i}");
        }
    }

    #[test]
    fn block_size_sensitivity_rejects_bad_block_size() {
        let geom = ArrayGeometry::ispass2010_l1();
        assert!(block_size_sensitivity(&geom, &[100], 0.005, 5).is_err());
    }

    #[test]
    fn cell_pfail_wrapper_matches_raw_value() {
        let geom = ArrayGeometry::ispass2010_l1();
        let p = CellPfail::new(0.001).unwrap();
        assert_eq!(mean_capacity_at(&geom, p), mean_capacity(&geom, 0.001));
    }

    #[test]
    #[should_panic(expected = "at least two points")]
    fn sweep_requires_two_points() {
        let geom = ArrayGeometry::ispass2010_l1();
        let _ = sweep_pfail(&geom, 0.01, 1);
    }
}
