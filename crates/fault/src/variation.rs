//! Process variation: spatially-correlated per-cell Vcc-min across a die.
//!
//! Real dies do not fail uniformly: a cell's Vcc-min is the sum of a
//! *systematic* component — slow, spatially-correlated drift from lithography
//! and layout (cells near each other share it) — and a *random* i.i.d.
//! component from dopant fluctuation. This module models both:
//!
//! * the **random** component is carried by the calibrated
//!   [`PfailVoltageModel`] bridge of `vccmin-analysis`: `pfail(V)` *is* the
//!   survival function of a cell's critical voltage, so the i.i.d. part of the
//!   model is by construction consistent with the paper's published `pfail`
//!   operating points;
//! * the **systematic** component is a per-die [`SystematicField`]: a seeded
//!   coarse grid of Gaussian control values (standard deviation
//!   [`VariationModel::sigma_systematic`], in normalized voltage units)
//!   bilinearly interpolated over the cache's (set, way) plane — fully
//!   deterministic from a seed, no FFT. A block whose systematic offset is
//!   `+s` behaves exactly as if its supply were `s` lower: its cells fail with
//!   probability `pfail(V - s)`.
//!
//! A [`DieVariation`] is one sampled die. [`crate::FaultMap::generate_at_voltage`]
//! turns it into a concrete fault map at any supply voltage; with
//! `sigma_systematic = 0` that sampling is *bit-identical* to the classic
//! i.i.d. [`crate::FaultMap::generate`] at `pfail(V)`, so the whole paper
//! evaluation is the degenerate case of this model.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use vccmin_analysis::yield_model::PfailVoltageModel;

use crate::geometry::CacheGeometry;

/// Parameters of the process-variation model: the voltage-to-`pfail` bridge
/// for the random component plus the strength and granularity of the
/// systematic (spatially-correlated) component.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VariationModel {
    /// The calibrated supply-voltage-to-`pfail` bridge (random component).
    pub pfail_voltage: PfailVoltageModel,
    /// Standard deviation of the systematic Vcc-min offset, in normalized
    /// voltage units (0 disables systematic variation entirely).
    pub sigma_systematic: f64,
    /// Control points per axis of the coarse correlation grid (the systematic
    /// field has `grid_points x grid_points` independent Gaussian values; a
    /// single point makes the whole die shift together).
    pub grid_points: usize,
}

impl VariationModel {
    /// Creates a variation model.
    ///
    /// # Panics
    ///
    /// Panics if `sigma_systematic` is negative or not finite, or if
    /// `grid_points` is zero.
    #[must_use]
    pub fn new(
        pfail_voltage: PfailVoltageModel,
        sigma_systematic: f64,
        grid_points: usize,
    ) -> Self {
        assert!(
            sigma_systematic.is_finite() && sigma_systematic >= 0.0,
            "sigma_systematic must be a non-negative finite value, got {sigma_systematic}"
        );
        assert!(grid_points >= 1, "the correlation grid needs at least one point");
        Self {
            pfail_voltage,
            sigma_systematic,
            grid_points,
        }
    }

    /// The repo's reference calibration: the paper-anchored `pfail(V)` bridge,
    /// a systematic sigma of 0.0125 normalized volts (a quarter of one decade
    /// step of the published table, so die-to-die and within-die drift move
    /// `pfail` by up to about a decade at 4 sigma) and a 4x4 correlation grid.
    #[must_use]
    pub fn ispass2010() -> Self {
        Self::new(PfailVoltageModel::ispass2010(), 0.0125, 4)
    }

    /// The degenerate i.i.d. model: no systematic variation at all. Fault maps
    /// sampled under this model are statistically (and, seed for seed,
    /// bit-for-bit) identical to [`crate::FaultMap::generate`] at `pfail(V)`.
    #[must_use]
    pub fn iid(pfail_voltage: PfailVoltageModel) -> Self {
        Self::new(pfail_voltage, 0.0, 1)
    }
}

impl Default for VariationModel {
    fn default() -> Self {
        Self::ispass2010()
    }
}

/// One standard normal draw via Box–Muller. Consumes exactly two uniforms, so
/// the sampling layout stays easy to reason about (and reproduce) per seed.
fn standard_normal(rng: &mut SmallRng) -> f64 {
    // 1 - u keeps the argument of ln strictly positive (next_f64 is in [0, 1)).
    let u1 = 1.0 - rng.next_f64();
    let u2 = rng.next_f64();
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

/// A sampled systematic Vcc-min field: Gaussian control values on a coarse
/// `points x points` grid over the unit square, bilinearly interpolated in
/// between. Deterministic from the RNG that sampled it.
#[derive(Debug, Clone, PartialEq)]
pub struct SystematicField {
    points: usize,
    /// Row-major `points x points` control values (normalized voltage offsets).
    values: Vec<f64>,
}

impl SystematicField {
    /// Samples a field of `points x points` independent `N(0, sigma^2)` control
    /// values from `rng`.
    ///
    /// # Panics
    ///
    /// Panics if `points` is zero.
    #[must_use]
    pub fn sample(points: usize, sigma: f64, rng: &mut SmallRng) -> Self {
        assert!(points >= 1, "the correlation grid needs at least one point");
        let values = (0..points * points)
            .map(|_| sigma * standard_normal(rng))
            .collect();
        Self { points, values }
    }

    /// Control points per axis.
    #[must_use]
    pub fn points(&self) -> usize {
        self.points
    }

    /// The control value at grid coordinate (`ix`, `iy`).
    ///
    /// # Panics
    ///
    /// Panics if either index is out of range.
    #[must_use]
    pub fn control(&self, ix: usize, iy: usize) -> f64 {
        assert!(ix < self.points && iy < self.points, "grid index out of range");
        self.values[iy * self.points + ix]
    }

    /// The field value at `(x, y)` in the unit square, by bilinear
    /// interpolation between the four surrounding control points (coordinates
    /// outside `[0, 1]` clamp to the border).
    #[must_use]
    pub fn at(&self, x: f64, y: f64) -> f64 {
        self.interpolate(self.axis(x), self.axis(y))
    }

    /// The grid interval holding coordinate `t` of one axis (clamped to
    /// `[0, 1]`) and the fraction of the way across it. A one-point grid has
    /// no interval and gives `(0, 0.0)`.
    fn axis(&self, t: f64) -> (usize, f64) {
        if self.points == 1 {
            return (0, 0.0);
        }
        let g = t.clamp(0.0, 1.0) * (self.points - 1) as f64;
        let i = (g.floor() as usize).min(self.points - 2);
        (i, g - i as f64)
    }

    /// The bilinear interpolation at the grid intervals and fractions that
    /// [`SystematicField::axis`] gives for `x` and `y`: along `x` on both
    /// bounding rows, then along `y` between them. A one-point grid is flat.
    fn interpolate(&self, (x0, fx): (usize, f64), (y0, fy): (usize, f64)) -> f64 {
        if self.points == 1 {
            return self.values[0];
        }
        let corner = y0 * self.points + x0;
        let (v00, v10) = (self.values[corner], self.values[corner + 1]);
        let (v01, v11) = (self.values[corner + self.points], self.values[corner + self.points + 1]);
        let top = v00 + (v10 - v00) * fx;
        let bottom = v01 + (v11 - v01) * fx;
        top + (bottom - top) * fy
    }
}

/// Sets per tile: a tile is a run of this many consecutive sets in one way
/// (the last run of a cache may be short). The field is bilinear along the
/// set axis, so the offsets of a tile span a narrow range, and
/// [`crate::FaultMap::generate_at_voltage`] decides most draws against the
/// tile's extremes instead of each block's own thresholds.
const TILE_SETS: u64 = 32;

/// One sampled die: a systematic Vcc-min offset per cache block (the cache's
/// sets span one axis of the die plane, its ways the other) plus the variation
/// model that produced it.
#[derive(Debug, Clone, PartialEq)]
pub struct DieVariation {
    geometry: CacheGeometry,
    model: VariationModel,
    seed: u64,
    /// Per-block systematic Vcc-min offsets in (set-major, way-minor) order.
    offsets: Vec<f64>,
    /// Per tile, the (minimum, maximum) of its blocks' offsets: tile rows of
    /// `TILE_SETS` sets in set order, each holding one tile per way.
    tile_extremes: Vec<(f64, f64)>,
}

impl DieVariation {
    /// Samples one die for `geometry` under `model`, deterministically from
    /// `seed`: the coarse Gaussian field is drawn first, then evaluated at the
    /// center of every (set, way) cell of the unit square, as
    /// [`SystematicField::at`] evaluates it, with each set's and each way's
    /// grid interval found once. One more pass records the extreme offsets of
    /// every tile.
    #[must_use]
    pub fn sample(geometry: &CacheGeometry, model: &VariationModel, seed: u64) -> Self {
        let mut rng = SmallRng::seed_from_u64(seed);
        let field = SystematicField::sample(model.grid_points, model.sigma_systematic, &mut rng);
        let sets = geometry.sets();
        let ways = geometry.associativity();
        let columns: Vec<_> = (0..ways)
            .map(|way| field.axis((way as f64 + 0.5) / ways as f64))
            .collect();
        let mut offsets = Vec::with_capacity((sets * ways) as usize);
        for set in 0..sets {
            let row = field.axis((set as f64 + 0.5) / sets as f64);
            offsets.extend(columns.iter().map(|&column| field.interpolate(row, column)));
        }
        let ways = ways as usize;
        let mut tile_extremes = Vec::with_capacity(sets.div_ceil(TILE_SETS) as usize * ways);
        for row in offsets.chunks(TILE_SETS as usize * ways) {
            tile_extremes.extend((0..ways).map(|way| {
                row.iter()
                    .skip(way)
                    .step_by(ways)
                    .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &s| {
                        (lo.min(s), hi.max(s))
                    })
            }));
        }
        Self {
            geometry: *geometry,
            model: *model,
            seed,
            offsets,
            tile_extremes,
        }
    }

    /// The cache geometry this die was sampled for.
    #[must_use]
    pub fn geometry(&self) -> &CacheGeometry {
        &self.geometry
    }

    /// The variation model the die was sampled under.
    #[must_use]
    pub fn model(&self) -> &VariationModel {
        &self.model
    }

    /// The seed the die was sampled with.
    #[must_use]
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The systematic Vcc-min offset (normalized volts) of the block in
    /// (`set`, `way`).
    ///
    /// # Panics
    ///
    /// Panics if `set` or `way` are out of range.
    #[must_use]
    pub fn systematic_offset(&self, set: u64, way: u64) -> f64 {
        assert!(set < self.geometry.sets(), "set {set} out of range");
        assert!(way < self.geometry.associativity(), "way {way} out of range");
        self.offsets[(set * self.geometry.associativity() + way) as usize]
    }

    /// Per-cell failure probability of the block in (`set`, `way`) at supply
    /// voltage `voltage`: a block offset by `+s` sees an effective supply of
    /// `voltage - s`.
    #[must_use]
    pub fn cell_pfail_at(&self, set: u64, way: u64, voltage: f64) -> f64 {
        self.model
            .pfail_voltage
            .pfail(voltage - self.systematic_offset(set, way))
    }

    /// The die-average per-cell failure probability at `voltage` (the i.i.d.
    /// `pfail` this die is "equivalent" to; used as fault-map metadata and in
    /// diagnostics).
    #[must_use]
    pub fn mean_cell_pfail_at(&self, voltage: f64) -> f64 {
        let pfail = self.model.pfail_voltage.pfail_curve();
        self.offsets.iter().map(|s| pfail(voltage - s)).sum::<f64>() / self.offsets.len() as f64
    }

    /// Every block's systematic offset, in (set-major, way-minor) order.
    pub(crate) fn offsets(&self) -> &[f64] {
        &self.offsets
    }

    /// The (minimum, maximum) offset of every tile, indexed by
    /// [`DieVariation::block_tiles`].
    pub(crate) fn tile_extremes(&self) -> &[(f64, f64)] {
        &self.tile_extremes
    }

    /// The index of the tile holding each block, by block number
    /// (set-major, way-minor): `set / TILE_SETS * ways + way`, in shifts and
    /// masks, since the associativity and `TILE_SETS` are powers of two.
    pub(crate) fn block_tiles(&self) -> impl Fn(usize) -> usize {
        let ways_log2 = self.geometry.associativity().trailing_zeros();
        let rows_log2 = ways_log2 + TILE_SETS.trailing_zeros();
        move |block| ((block >> rows_log2) << ways_log2) | (block & ((1 << ways_log2) - 1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn l1() -> CacheGeometry {
        CacheGeometry::ispass2010_l1()
    }

    #[test]
    fn block_tiles_are_rows_of_tile_sets_sets_with_one_tile_per_way() {
        let model = VariationModel::ispass2010();
        for geometry in [
            l1(),
            CacheGeometry::ispass2010_l2(),
            CacheGeometry::ispass2010_victim_cache(),
            CacheGeometry::new(4096, 64, 1, 24).unwrap(),
        ] {
            let die = DieVariation::sample(&geometry, &model, 1);
            let tile = die.block_tiles();
            let ways = geometry.associativity();
            for set in 0..geometry.sets() {
                for way in 0..ways {
                    let block = (set * ways + way) as usize;
                    assert_eq!(
                        tile(block) as u64,
                        set / TILE_SETS * ways + way,
                        "{geometry}"
                    );
                }
            }
            assert_eq!(
                tile(geometry.blocks() as usize - 1) + 1,
                die.tile_extremes().len()
            );
        }
    }

    #[test]
    fn die_sampling_is_deterministic_per_seed() {
        let model = VariationModel::ispass2010();
        let a = DieVariation::sample(&l1(), &model, 9);
        let b = DieVariation::sample(&l1(), &model, 9);
        let c = DieVariation::sample(&l1(), &model, 10);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn zero_sigma_produces_a_flat_die() {
        let model = VariationModel::iid(PfailVoltageModel::ispass2010());
        let die = DieVariation::sample(&l1(), &model, 3);
        for set in 0..l1().sets() {
            for way in 0..l1().associativity() {
                assert_eq!(die.systematic_offset(set, way), 0.0);
            }
        }
        // The flat die's cell pfail equals the bridge value everywhere.
        let p = model.pfail_voltage.pfail(0.55);
        assert_eq!(die.cell_pfail_at(0, 0, 0.55), p);
        // The mean accumulates 512 identical values, so compare with a
        // relative tolerance rather than bit-exactly.
        assert!((die.mean_cell_pfail_at(0.55) - p).abs() < 1e-12 * p);
    }

    #[test]
    fn nonzero_sigma_produces_spread_offsets_with_plausible_scale() {
        let model = VariationModel::ispass2010();
        let die = DieVariation::sample(&l1(), &model, 42);
        let offsets: Vec<f64> = (0..l1().sets())
            .flat_map(|s| (0..l1().associativity()).map(move |w| (s, w)))
            .map(|(s, w)| die.systematic_offset(s, w))
            .collect();
        let spread = offsets.iter().cloned().fold(f64::NEG_INFINITY, f64::max)
            - offsets.iter().cloned().fold(f64::INFINITY, f64::min);
        assert!(spread > 0.0, "a sampled die must vary");
        // Interpolated values stay within the control-point range, which is a
        // few sigma wide with overwhelming probability.
        assert!(
            spread < 10.0 * model.sigma_systematic,
            "spread {spread} implausible for sigma {}",
            model.sigma_systematic
        );
    }

    #[test]
    fn bilinear_interpolation_hits_control_points_and_stays_bounded() {
        let mut rng = SmallRng::seed_from_u64(5);
        let field = SystematicField::sample(4, 0.1, &mut rng);
        let scale = 3.0;
        // At control coordinates the field reproduces the control values.
        for iy in 0..4 {
            for ix in 0..4 {
                let v = field.at(ix as f64 / scale, iy as f64 / scale);
                assert!((v - field.control(ix, iy)).abs() < 1e-12);
            }
        }
        // Everywhere else it stays within the global control range (bilinear
        // interpolation is a convex combination of the four corners).
        let lo = (0..16).map(|i| field.control(i % 4, i / 4)).fold(f64::INFINITY, f64::min);
        let hi = (0..16)
            .map(|i| field.control(i % 4, i / 4))
            .fold(f64::NEG_INFINITY, f64::max);
        for i in 0..=20 {
            for j in 0..=20 {
                let v = field.at(i as f64 / 20.0, j as f64 / 20.0);
                assert!(v >= lo - 1e-12 && v <= hi + 1e-12);
            }
        }
        // Coordinates beyond the unit square clamp to the border (up to one
        // rounding step of the interpolation arithmetic).
        assert!((field.at(-1.0, -1.0) - field.control(0, 0)).abs() < 1e-12);
        assert!((field.at(2.0, 2.0) - field.control(3, 3)).abs() < 1e-12);
    }

    #[test]
    fn sampled_offsets_equal_the_field_at_every_block_center_bit_for_bit() {
        // The per-point evaluation `sample` used before it found each set's
        // and each way's grid interval once.
        fn reference_at(field: &SystematicField, x: f64, y: f64) -> f64 {
            let points = field.points();
            if points == 1 {
                return field.control(0, 0);
            }
            let scale = (points - 1) as f64;
            let gx = (x.clamp(0.0, 1.0)) * scale;
            let gy = (y.clamp(0.0, 1.0)) * scale;
            let x0 = (gx.floor() as usize).min(points - 2);
            let y0 = (gy.floor() as usize).min(points - 2);
            let fx = gx - x0 as f64;
            let fy = gy - y0 as f64;
            let v00 = field.control(x0, y0);
            let v10 = field.control(x0 + 1, y0);
            let v01 = field.control(x0, y0 + 1);
            let v11 = field.control(x0 + 1, y0 + 1);
            let top = v00 + (v10 - v00) * fx;
            let bottom = v01 + (v11 - v01) * fx;
            top + (bottom - top) * fy
        }
        let two_way = CacheGeometry::new(4096, 64, 2, 24).unwrap();
        for geom in [l1(), CacheGeometry::ispass2010_l2(), two_way] {
            for points in [1, 2, 4, 7] {
                let model = VariationModel::new(PfailVoltageModel::ispass2010(), 0.0125, points);
                for seed in 0..4 {
                    let die = DieVariation::sample(&geom, &model, seed);
                    let mut rng = SmallRng::seed_from_u64(seed);
                    let field = SystematicField::sample(points, model.sigma_systematic, &mut rng);
                    let (sets, ways) = (geom.sets(), geom.associativity());
                    for set in 0..sets {
                        let x = (set as f64 + 0.5) / sets as f64;
                        for way in 0..ways {
                            let y = (way as f64 + 0.5) / ways as f64;
                            assert_eq!(
                                die.systematic_offset(set, way).to_bits(),
                                reference_at(&field, x, y).to_bits(),
                                "{points} points, seed {seed}, set {set}, way {way}"
                            );
                            assert_eq!(field.at(x, y).to_bits(), reference_at(&field, x, y).to_bits());
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn single_point_grid_shifts_the_whole_die_together() {
        let model = VariationModel::new(PfailVoltageModel::ispass2010(), 0.02, 1);
        let die = DieVariation::sample(&l1(), &model, 11);
        let first = die.systematic_offset(0, 0);
        for set in 0..l1().sets() {
            for way in 0..l1().associativity() {
                assert_eq!(die.systematic_offset(set, way), first);
            }
        }
    }

    #[test]
    fn neighboring_blocks_are_more_correlated_than_distant_ones() {
        // Spatial correlation is the whole point of the coarse-grid field:
        // adjacent sets sit close on the die plane and must have closer
        // systematic offsets, on average, than sets far apart.
        let model = VariationModel::ispass2010();
        let mut near = 0.0;
        let mut far = 0.0;
        let mut n = 0.0;
        for seed in 0..40 {
            let die = DieVariation::sample(&l1(), &model, seed);
            for set in 0..l1().sets() - 1 {
                near += (die.systematic_offset(set, 0) - die.systematic_offset(set + 1, 0)).abs();
                far += (die.systematic_offset(set, 0)
                    - die.systematic_offset((set + 32) % 64, 0))
                .abs();
                n += 1.0;
            }
        }
        assert!(
            near / n < far / n,
            "adjacent sets should be more similar (near {} vs far {})",
            near / n,
            far / n
        );
    }

    #[test]
    fn cell_pfail_is_monotone_non_increasing_in_voltage() {
        let die = DieVariation::sample(&l1(), &VariationModel::ispass2010(), 77);
        for &(set, way) in &[(0u64, 0u64), (13, 3), (63, 7)] {
            let mut prev = f64::INFINITY;
            for i in 0..=20 {
                let v = 0.40 + 0.35 * f64::from(i) / 20.0;
                let p = die.cell_pfail_at(set, way, v);
                assert!((0.0..=1.0).contains(&p));
                assert!(p <= prev + 1e-15);
                prev = p;
            }
        }
    }

    #[test]
    fn standard_normal_has_plausible_moments() {
        let mut rng = SmallRng::seed_from_u64(1);
        let n = 20_000;
        let samples: Vec<f64> = (0..n).map(|_| standard_normal(&mut rng)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|s| (s - mean) * (s - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.03, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "variance {var}");
    }

    #[test]
    #[should_panic(expected = "at least one point")]
    fn zero_grid_points_are_rejected() {
        let _ = VariationModel::new(PfailVoltageModel::ispass2010(), 0.01, 0);
    }

    #[test]
    #[should_panic(expected = "sigma_systematic")]
    fn negative_sigma_is_rejected() {
        let _ = VariationModel::new(PfailVoltageModel::ispass2010(), -0.1, 4);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_offset_access_panics() {
        let die = DieVariation::sample(&l1(), &VariationModel::ispass2010(), 0);
        let _ = die.systematic_offset(64, 0);
    }
}
