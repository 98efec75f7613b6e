//! Probability analysis of random cell faults in cache arrays.
//!
//! This crate implements the analytical framework of Section IV of
//! *Performance-Effective Operation below Vcc-min* (Ladas, Sazeides, Desmet — ISPASS 2010).
//! When a cache operates below the minimum reliable supply voltage (Vcc-min), SRAM cells
//! fail with some per-cell probability `pfail`. The paper analyses how uniformly random
//! cell faults distribute over cache blocks and uses that analysis to compare
//! *block-disabling* against *word-disabling* (Wilkerson et al., ISCA 2008).
//!
//! The crate provides, for an arbitrary [`ArrayGeometry`]:
//!
//! * the expected number of faulty blocks for a fixed number of faults
//!   (the urn model, Eq. 1 of the paper) and for a fixed per-cell failure
//!   probability (Eq. 2) — [`block_faults`];
//! * the full probability distribution of cache capacity under block-disabling
//!   (Eq. 3) — [`capacity`];
//! * the probability that a word-disabled cache is unusable at low voltage
//!   (Eqs. 4 and 5) — [`word_disable`];
//! * the capacity of the *incremental* word-disabling variant (Eq. 6) —
//!   [`incremental`];
//! * expected capacity of the bit-fix repair scheme (after Wilkerson et al.),
//!   which sacrifices one way per faulty set to store repair patterns —
//!   [`bit_fix`];
//! * expected capacity of the way-sacrifice / set-remap scheme, which disables
//!   the worst way of every set — [`way_sacrifice`];
//! * the illustrative voltage/power/performance scaling curves of Fig. 1 —
//!   [`voltage`];
//! * the calibrated `pfail(V)` bridge between supply voltage and per-cell
//!   failure probability, plus closed-form i.i.d. die capacity/yield —
//!   [`yield_model`];
//! * a closed-form time/energy/EDP model of a runtime voltage-mode governor
//!   that alternates between nominal and below-Vcc-min execution —
//!   [`governor`];
//! * expected victim-cache entry survival at low voltage — [`victim`];
//! * an exact, deterministic, mergeable quantile sketch for grid-valued
//!   samples (the fleet yield campaign's Vcc-min distributions) —
//!   [`quantile`].
//!
//! # Example
//!
//! Reproduce the headline observation of the paper — that at `pfail = 0.001` a
//! 32 KB, 64 B/block cache keeps well over half of its blocks fault free:
//!
//! ```
//! use vccmin_analysis::{ArrayGeometry, block_faults};
//!
//! let geom = ArrayGeometry::ispass2010_l1();
//! let faulty = block_faults::mean_faulty_block_fraction(&geom, 0.001);
//! assert!(faulty < 0.5, "fewer than half of the blocks are faulty");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Shared strict lint table — kept byte-identical in every workspace crate and
// applied per-crate (not via `[workspace.lints]`, which the vendored toolchain
// setup does not rely on). simlint's D-rules cover the determinism side; this
// table covers the general-correctness side.
#![deny(
    clippy::dbg_macro,
    clippy::exit,
    clippy::mem_forget,
    clippy::todo,
    clippy::unimplemented
)]
#![warn(
    clippy::explicit_iter_loop,
    clippy::manual_let_else,
    clippy::map_unwrap_or,
    clippy::redundant_closure_for_method_calls,
    clippy::semicolon_if_nothing_returned
)]

pub mod bit_fix;
pub mod block_faults;
pub mod capacity;
pub mod combinatorics;
pub mod error;
pub mod geometry;
pub mod governor;
pub mod incremental;
pub mod quantile;
pub mod victim;
pub mod voltage;
pub mod way_sacrifice;
pub mod word_disable;
pub mod yield_model;

pub use error::AnalysisError;
pub use geometry::ArrayGeometry;

/// Probability of failure of a single SRAM cell at a given supply voltage.
///
/// The paper (following Wilkerson et al. and Kulkarni et al.) treats `pfail` as an
/// exponential function of the voltage deficit below Vcc-min. This type is a thin
/// validated wrapper so the rest of the crate can assume `0.0 <= pfail <= 1.0`.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd)]
pub struct CellPfail(f64);

impl CellPfail {
    /// Creates a new per-cell failure probability.
    ///
    /// # Errors
    ///
    /// Returns [`AnalysisError::InvalidProbability`] if `p` is not a finite value in
    /// `[0.0, 1.0]`.
    pub fn new(p: f64) -> Result<Self, AnalysisError> {
        if !p.is_finite() || !(0.0..=1.0).contains(&p) {
            return Err(AnalysisError::InvalidProbability(p));
        }
        Ok(Self(p))
    }

    /// The probability value as an `f64`.
    #[must_use]
    pub fn value(self) -> f64 {
        self.0
    }

    /// The nominal `pfail` used throughout the paper's evaluation (0.001).
    #[must_use]
    pub fn paper_nominal() -> Self {
        Self(0.001)
    }
}

impl Default for CellPfail {
    fn default() -> Self {
        Self::paper_nominal()
    }
}

impl std::fmt::Display for CellPfail {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl TryFrom<f64> for CellPfail {
    type Error = AnalysisError;

    fn try_from(value: f64) -> Result<Self, Self::Error> {
        Self::new(value)
    }
}

impl From<CellPfail> for f64 {
    fn from(value: CellPfail) -> Self {
        value.value()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cell_pfail_accepts_valid_probabilities() {
        assert!(CellPfail::new(0.0).is_ok());
        assert!(CellPfail::new(1.0).is_ok());
        assert!(CellPfail::new(0.001).is_ok());
    }

    #[test]
    fn cell_pfail_rejects_invalid_probabilities() {
        assert!(CellPfail::new(-0.1).is_err());
        assert!(CellPfail::new(1.1).is_err());
        assert!(CellPfail::new(f64::NAN).is_err());
        assert!(CellPfail::new(f64::INFINITY).is_err());
    }

    #[test]
    fn cell_pfail_default_is_paper_nominal() {
        assert_eq!(CellPfail::default(), CellPfail::paper_nominal());
        assert!((CellPfail::default().value() - 0.001).abs() < 1e-12);
    }

    #[test]
    fn cell_pfail_conversions_round_trip() {
        let p = CellPfail::try_from(0.25).unwrap();
        let v: f64 = p.into();
        assert!((v - 0.25).abs() < 1e-12);
        assert_eq!(format!("{p}"), "0.25");
    }
}
