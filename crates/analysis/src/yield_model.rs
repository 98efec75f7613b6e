//! The `pfail(V)` bridge and the closed-form i.i.d. die-yield model.
//!
//! The paper evaluates its repair schemes at a handful of fixed per-cell
//! failure probabilities (`pfail = 1e-3` nominal), but the quantity a designer
//! reasons about is the *supply voltage*: 6T SRAM cell failures become
//! exponentially more likely as the supply drops below Vcc-min (Wilkerson et
//! al., ISCA 2008; Kulkarni et al.). This module provides the missing bridge:
//!
//! * [`PfailVoltageModel`] — a calibrated log-linear map between normalized
//!   supply voltage and per-cell failure probability, anchored so the paper's
//!   published `pfail` operating points land on the voltages of its Table III
//!   machine (`pfail = 1e-3` at the half-nominal low-voltage floor of
//!   [`crate::voltage::VoltageScalingModel`]);
//! * closed-form *per-die* expectations in the i.i.d. fault limit (no
//!   systematic process variation): expected capacity at a voltage
//!   ([`expected_capacity_at_voltage`]) and the probability that a die meets a
//!   capacity floor under block-disabling ([`block_disable_yield`]) or remains
//!   repairable at all under word-disabling ([`word_disable_yield`]).
//!
//! The Monte-Carlo die populations of `vccmin-experiments`' `YieldStudy` are
//! cross-validated against these closed forms in the i.i.d. limit.

use crate::block_faults;
use crate::capacity::CapacityDistribution;
use crate::geometry::ArrayGeometry;
use crate::word_disable::{self, WordDisableParams};

/// The paper-calibrated (normalized voltage, per-cell `pfail`) operating
/// points: one decade of failure probability per 0.05 of normalized supply,
/// anchored at the Table III low-voltage floor (half nominal voltage, the
/// paper's nominal `pfail = 1e-3`) and reaching an effectively fault-free
/// `1e-7` at Vcc-min (0.7 of nominal).
pub const PFAIL_VOLTAGE_TABLE: [(f64, f64); 5] = [
    (0.50, 1e-3),
    (0.55, 1e-4),
    (0.60, 1e-5),
    (0.65, 1e-6),
    (0.70, 1e-7),
];

/// A calibrated map between normalized supply voltage and per-cell failure
/// probability: `log10 pfail(V) = log10 p_anchor - decades_per_volt * (V - V_anchor)`.
///
/// The exponential sensitivity of `pfail` to the voltage deficit below Vcc-min
/// is the standard first-order model of the low-voltage SRAM literature; the
/// log-linear form keeps the bridge invertible in closed form
/// ([`PfailVoltageModel::voltage_for_pfail`]), which the yield studies use to
/// express "the paper's `pfail` points" as die voltages.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PfailVoltageModel {
    /// Normalized voltage of the calibration anchor.
    pub anchor_voltage: f64,
    /// Per-cell failure probability at the anchor voltage.
    pub anchor_pfail: f64,
    /// Decades of `pfail` gained per unit of normalized voltage dropped.
    pub decades_per_volt: f64,
}

impl PfailVoltageModel {
    /// Creates a model from an anchor point and a slope.
    ///
    /// # Panics
    ///
    /// Panics if the anchor probability is not in `(0, 1]`, the anchor voltage
    /// is not finite, or the slope is not a positive finite value.
    #[must_use]
    pub fn new(anchor_voltage: f64, anchor_pfail: f64, decades_per_volt: f64) -> Self {
        assert!(
            anchor_voltage.is_finite(),
            "anchor voltage must be finite, got {anchor_voltage}"
        );
        assert!(
            anchor_pfail > 0.0 && anchor_pfail <= 1.0,
            "anchor pfail must be in (0, 1], got {anchor_pfail}"
        );
        assert!(
            decades_per_volt.is_finite() && decades_per_volt > 0.0,
            "decades_per_volt must be positive and finite, got {decades_per_volt}"
        );
        Self {
            anchor_voltage,
            anchor_pfail,
            decades_per_volt,
        }
    }

    /// The calibration used throughout the repo: anchored on
    /// [`PFAIL_VOLTAGE_TABLE`], i.e. the paper's nominal `pfail = 1e-3` at the
    /// Table III half-nominal low-voltage floor and one decade per 0.05 of
    /// normalized voltage, so every published `pfail` point of the table lands
    /// exactly on its voltage.
    #[must_use]
    pub fn ispass2010() -> Self {
        Self::new(0.5, 1e-3, 20.0)
    }

    /// Per-cell failure probability at normalized supply voltage `v`, clamped
    /// into `[0, 1]` so the result is always a valid probability (deep below
    /// the floor every cell fails; far above Vcc-min the probability
    /// underflows to zero).
    ///
    /// # Panics
    ///
    /// Panics if `v` is NaN.
    #[must_use]
    pub fn pfail(&self, v: f64) -> f64 {
        self.pfail_curve()(v)
    }

    /// [`PfailVoltageModel::pfail`] as a closure that evaluates
    /// `log10(anchor_pfail)` once, for callers that evaluate the bridge at
    /// many voltages (a fault map evaluates it once per block). `pfail` itself
    /// calls this closure, so the two agree bit for bit at every voltage.
    ///
    /// The closure panics if given a NaN voltage.
    pub fn pfail_curve(&self) -> impl Fn(f64) -> f64 {
        let Self {
            anchor_voltage,
            anchor_pfail,
            decades_per_volt,
        } = *self;
        let log10_anchor = anchor_pfail.log10();
        move |v| {
            assert!(!v.is_nan(), "voltage must not be NaN");
            let log10_p = log10_anchor - decades_per_volt * (v - anchor_voltage);
            10f64.powf(log10_p).clamp(0.0, 1.0)
        }
    }

    /// The normalized voltage at which the per-cell failure probability equals
    /// `pfail` — the exact inverse of [`PfailVoltageModel::pfail`] on the
    /// unclamped range.
    ///
    /// # Panics
    ///
    /// Panics if `pfail` is not in `(0, 1]`.
    #[must_use]
    pub fn voltage_for_pfail(&self, pfail: f64) -> f64 {
        assert!(
            pfail > 0.0 && pfail <= 1.0,
            "pfail must be in (0, 1], got {pfail}"
        );
        self.anchor_voltage + (self.anchor_pfail.log10() - pfail.log10()) / self.decades_per_volt
    }
}

impl Default for PfailVoltageModel {
    fn default() -> Self {
        Self::ispass2010()
    }
}

/// Closed-form expected per-die capacity fraction under block-disabling at
/// normalized supply voltage `v`, in the i.i.d. fault limit (no systematic
/// variation): [`block_faults::mean_capacity`] evaluated at `pfail(v)`.
#[must_use]
pub fn expected_capacity_at_voltage(
    geometry: &ArrayGeometry,
    model: &PfailVoltageModel,
    v: f64,
) -> f64 {
    block_faults::mean_capacity(geometry, model.pfail(v))
}

/// Closed-form probability that an i.i.d. die meets a capacity floor under
/// block-disabling: `P[fault-free blocks >= ceil(floor * d)]` from the
/// binomial capacity distribution (Eq. 3 of the paper).
///
/// This is the i.i.d. yield of block-disabling at one voltage; the die is
/// "operational" when at least `min_capacity_fraction` of its blocks survive.
///
/// # Panics
///
/// Panics if `min_capacity_fraction` is not in `[0, 1]`.
#[must_use]
pub fn block_disable_yield(
    geometry: &ArrayGeometry,
    pfail: f64,
    min_capacity_fraction: f64,
) -> f64 {
    assert!(
        (0.0..=1.0).contains(&min_capacity_fraction),
        "capacity floor must be a fraction, got {min_capacity_fraction}"
    );
    let dist = CapacityDistribution::new(geometry, pfail);
    let d = geometry.blocks();
    let needed = (min_capacity_fraction * d as f64).ceil() as u64;
    (needed..=d)
        .map(|x| dist.prob_fault_free_blocks(x))
        .sum::<f64>()
        // The pmf tail sum can overshoot 1 by a few ulps; keep the result a
        // probability.
        .clamp(0.0, 1.0)
}

/// Closed-form probability that an i.i.d. die remains repairable at all under
/// word-disabling: one minus the whole-cache failure probability (Eqs. 4–5).
/// A usable word-disabled cache always retains exactly half its capacity, so
/// for any floor at or below 0.5 this *is* the word-disabling yield.
#[must_use]
pub fn word_disable_yield(
    geometry: &ArrayGeometry,
    params: &WordDisableParams,
    pfail: f64,
) -> f64 {
    1.0 - word_disable::whole_cache_failure_probability(geometry, params, pfail)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn calibration_lands_on_every_published_table_point() {
        let model = PfailVoltageModel::ispass2010();
        for &(v, p) in &PFAIL_VOLTAGE_TABLE {
            let got = model.pfail(v);
            assert!(
                (got.log10() - p.log10()).abs() < 1e-9,
                "pfail({v}) = {got}, table says {p}"
            );
            let back = model.voltage_for_pfail(p);
            assert!((back - v).abs() < 1e-9, "voltage_for_pfail({p}) = {back}, table says {v}");
        }
    }

    #[test]
    fn pfail_is_monotone_decreasing_in_voltage_and_clamped() {
        let model = PfailVoltageModel::ispass2010();
        let mut prev = f64::INFINITY;
        for i in 0..=100 {
            let v = 0.2 + 0.8 * f64::from(i) / 100.0;
            let p = model.pfail(v);
            assert!((0.0..=1.0).contains(&p));
            assert!(p <= prev + 1e-15, "pfail must not increase with voltage");
            prev = p;
        }
        // Deep below the floor the probability saturates at certain failure.
        assert_eq!(model.pfail(0.0), 1.0);
        // Far above Vcc-min it is effectively (or exactly) zero.
        assert!(model.pfail(3.0) < 1e-30);
    }

    #[test]
    fn voltage_for_pfail_inverts_pfail() {
        let model = PfailVoltageModel::ispass2010();
        for &p in &[1e-6, 1e-4, 1e-3, 1e-2] {
            let v = model.voltage_for_pfail(p);
            assert!((model.pfail(v) - p).abs() / p < 1e-9);
        }
    }

    #[test]
    #[should_panic(expected = "must not be NaN")]
    fn nan_voltage_is_rejected() {
        let _ = PfailVoltageModel::ispass2010().pfail(f64::NAN);
    }

    #[test]
    #[should_panic(expected = "anchor pfail")]
    fn zero_anchor_probability_is_rejected() {
        let _ = PfailVoltageModel::new(0.5, 0.0, 20.0);
    }

    #[test]
    fn expected_capacity_tracks_the_block_disable_model() {
        let geom = ArrayGeometry::ispass2010_l1();
        let model = PfailVoltageModel::ispass2010();
        // At the paper's operating point the closed forms agree with Fig. 3.
        let cap = expected_capacity_at_voltage(&geom, &model, 0.5);
        assert!((cap - block_faults::mean_capacity(&geom, 1e-3)).abs() < 1e-15);
        assert!((0.55..0.62).contains(&cap));
        // Far above Vcc-min the die is effectively fault free.
        assert!(expected_capacity_at_voltage(&geom, &model, 1.0) > 0.999_999);
    }

    #[test]
    fn block_disable_yield_matches_the_paper_half_capacity_claim() {
        let geom = ArrayGeometry::ispass2010_l1();
        // "99.9% probability for a block-disable cache to have more than 50% capacity"
        let y = block_disable_yield(&geom, 1e-3, 0.5);
        assert!(y > 0.999, "yield at pfail=1e-3, floor=0.5 should exceed 0.999, got {y}");
        // A zero floor is always met; a full-capacity floor almost never is.
        assert_eq!(block_disable_yield(&geom, 1e-3, 0.0), 1.0);
        assert!(block_disable_yield(&geom, 1e-3, 1.0) < 1e-3);
        // Yield falls as pfail grows.
        assert!(block_disable_yield(&geom, 3e-3, 0.5) < y);
    }

    #[test]
    fn word_disable_yield_complements_whole_cache_failure() {
        let geom = ArrayGeometry::ispass2010_l1();
        let params = WordDisableParams::ispass2010();
        let y = word_disable_yield(&geom, &params, 1e-3);
        assert!((0.0..=1.0).contains(&y));
        // At the paper's pfail, word-disabling is almost always usable.
        assert!(y > 0.95, "word-disable yield at 1e-3 should be high, got {y}");
        // Yield is monotone non-increasing in pfail.
        assert!(word_disable_yield(&geom, &params, 1e-2) <= y);
    }

    #[test]
    #[should_panic(expected = "capacity floor")]
    fn invalid_capacity_floor_is_rejected() {
        let _ = block_disable_yield(&ArrayGeometry::ispass2010_l1(), 1e-3, 1.5);
    }
}
